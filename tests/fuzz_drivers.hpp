// In-tree mutation drivers shared by the fuzz suites (label `fuzz`). They
// are seeded, deterministic and plain C++, so they run on g++ alone, with no
// libFuzzer, and under both sanitizer presets. Each driver hands every
// mutant to `check` together with a label naming the mutation, so a failing
// assertion says how to rebuild its input.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"

namespace mcs::test {

/// Calls check(prefix, label) for every prefix of `intact`, from the empty
/// one to the whole text: every state a crash mid-write can leave.
template <typename Check>
void for_each_truncation(const std::string& intact, std::string_view name, Check&& check) {
  for (std::size_t cut = 0; cut <= intact.size(); ++cut) {
    check(intact.substr(0, cut), std::string(name) + " truncated at byte " + std::to_string(cut));
  }
}

/// Calls check(mutant, label) once per byte position in [begin, end) of
/// `intact`, with that byte XORed by a non-zero mask. The masks are drawn in
/// position order from Rng(seed), so a seed names one fixed set of mutants.
template <typename Check>
void for_each_byte_flip(const std::string& intact, std::string_view name, std::uint64_t seed,
                        Check&& check, std::size_t begin = 0,
                        std::size_t end = std::string::npos) {
  common::Rng rng(seed);
  end = std::min(end, intact.size());
  for (std::size_t position = begin; position < end; ++position) {
    const auto flip = static_cast<unsigned char>(rng.uniform_int(1, 255));
    std::string mutant = intact;
    mutant[position] = static_cast<char>(static_cast<unsigned char>(mutant[position]) ^ flip);
    check(mutant, std::string(name) + " byte " + std::to_string(position) + " xor " +
                      std::to_string(flip));
  }
}

/// Values that sit on a text parser's knife edges: the non-finite
/// spellings, overflow, denormals, signed zero, integer limits, the empty
/// field and a comment marker.
inline const std::vector<std::string>& hostile_tokens() {
  static const std::vector<std::string> tokens = {
      "nan", "-nan", "inf", "-inf", "1e309", "-1e309", "1e300", "4.9e-324", "-0",
      "0",   "-1",   "2147483648", "18446744073709551616", "0x10", "+1", "", "#", "1 2"};
  return tokens;
}

/// Calls check(mutant, label) for every field of `intact` — a maximal run of
/// characters outside `separators` — replaced in turn by each of `values`.
template <typename Check>
void for_each_field_swap(const std::string& intact, std::string_view separators,
                         const std::vector<std::string>& values, std::string_view name,
                         Check&& check) {
  for (std::size_t start = intact.find_first_not_of(separators); start != std::string::npos;) {
    const std::size_t stop = std::min(intact.find_first_of(separators, start), intact.size());
    for (const std::string& value : values) {
      std::string mutant = intact;
      mutant.replace(start, stop - start, value);
      check(mutant, std::string(name) + " field at byte " + std::to_string(start) + " := '" +
                        value + "'");
    }
    start = intact.find_first_not_of(separators, stop);
  }
}

}  // namespace mcs::test
