#include "common/csv.hpp"

#include <sstream>

#include "common/check.hpp"
#include "common/text.hpp"

namespace mcs::common {

namespace {

bool needs_quoting(const std::string& field) {
  return field.find_first_of(",\"\n") != std::string::npos;
}

std::string quote(const std::string& field) {
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') {
      out += '"';
    }
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::size_t CsvTable::column(const std::string& name) const {
  for (std::size_t k = 0; k < header.size(); ++k) {
    if (header[k] == name) {
      return k;
    }
  }
  throw PreconditionError("CSV column not found: " + name);
}

CsvTable parse_csv(const std::string& text) {
  CsvTable table;
  if (text.empty()) {
    return table;
  }
  std::vector<CsvRow> all_rows;
  CsvRow row;
  std::string field;
  bool in_quotes = false;
  bool row_has_content = false;

  const auto end_field = [&] {
    row.push_back(std::move(field));
    field.clear();
  };
  const auto end_row = [&] {
    end_field();
    all_rows.push_back(std::move(row));
    row.clear();
    row_has_content = false;
  };

  for (std::size_t k = 0; k < text.size(); ++k) {
    const char c = text[k];
    if (in_quotes) {
      if (c == '"') {
        if (k + 1 < text.size() && text[k + 1] == '"') {
          field += '"';
          ++k;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
        row_has_content = true;
      }
    } else if (c == '"') {
      in_quotes = true;
      row_has_content = true;
    } else if (c == ',') {
      end_field();
      row_has_content = true;
    } else if (c == '\n') {
      if (row_has_content || !field.empty() || !row.empty()) {
        end_row();
      }
    } else if (c != '\r') {
      field += c;
      row_has_content = true;
    }
  }
  MCS_EXPECTS(!in_quotes, "CSV ends inside a quoted field");
  if (row_has_content || !field.empty() || !row.empty()) {
    end_row();
  }

  if (all_rows.empty()) {
    return table;
  }
  table.header = std::move(all_rows.front());
  for (std::size_t k = 1; k < all_rows.size(); ++k) {
    MCS_EXPECTS(all_rows[k].size() == table.header.size(),
                "CSV row width differs from header width");
    table.rows.push_back(std::move(all_rows[k]));
  }
  return table;
}

std::string to_csv(const CsvTable& table) {
  std::ostringstream out;
  const auto write_row = [&](const CsvRow& row) {
    for (std::size_t k = 0; k < row.size(); ++k) {
      if (k > 0) {
        out << ',';
      }
      out << (needs_quoting(row[k]) ? quote(row[k]) : row[k]);
    }
    out << '\n';
  };
  write_row(table.header);
  for (const auto& row : table.rows) {
    write_row(row);
  }
  return out.str();
}

CsvTable read_csv_file(const std::filesystem::path& path) {
  return parse_csv(text::read_file(path, "CSV file"));
}

void write_csv_file(const std::filesystem::path& path, const CsvTable& table) {
  text::write_file(path, to_csv(table), "CSV file");
}

}  // namespace mcs::common
