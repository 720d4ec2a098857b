#include "geo/grid.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/check.hpp"

namespace mcs::geo {

namespace {
constexpr double kEarthRadiusM = 6371000.0;

double deg_to_rad(double deg) { return deg * std::numbers::pi / 180.0; }

/// Meters per degree of latitude (constant on a sphere).
constexpr double kMetersPerDegLat = 2.0 * std::numbers::pi * kEarthRadiusM / 360.0;

double meters_per_deg_lon(double lat_deg) {
  return kMetersPerDegLat * std::cos(deg_to_rad(lat_deg));
}
}  // namespace

bool within_wgs84(const LatLon& p) {
  return p.lat >= -90.0 && p.lat <= 90.0 && p.lon >= -180.0 && p.lon <= 180.0;
}

double distance_m(const LatLon& a, const LatLon& b) {
  const double lat1 = deg_to_rad(a.lat);
  const double lat2 = deg_to_rad(b.lat);
  const double dlat = lat2 - lat1;
  const double dlon = deg_to_rad(b.lon - a.lon);
  const double s = std::sin(dlat / 2.0) * std::sin(dlat / 2.0) +
                   std::cos(lat1) * std::cos(lat2) * std::sin(dlon / 2.0) * std::sin(dlon / 2.0);
  return 2.0 * kEarthRadiusM * std::asin(std::min(1.0, std::sqrt(s)));
}

bool BoundingBox::contains(const LatLon& p) const {
  return p.lat >= south_west.lat && p.lat <= north_east.lat && p.lon >= south_west.lon &&
         p.lon <= north_east.lon;
}

double BoundingBox::width_m() const {
  const double mid_lat = (south_west.lat + north_east.lat) / 2.0;
  return (north_east.lon - south_west.lon) * meters_per_deg_lon(mid_lat);
}

double BoundingBox::height_m() const {
  return (north_east.lat - south_west.lat) * kMetersPerDegLat;
}

BoundingBox shanghai_bounding_box() {
  // Urban Shanghai, roughly 75 km x 55 km; matches the paper's 2 km gridding
  // scale (a few hundred to ~1000 cells).
  return BoundingBox{.south_west = {30.95, 121.10}, .north_east = {31.45, 121.90}};
}

GridMap::GridMap(BoundingBox box, double cell_side_m) : box_(box), cell_side_m_(cell_side_m) {
  MCS_EXPECTS(box.south_west.lat < box.north_east.lat && box.south_west.lon < box.north_east.lon,
              "bounding box must be non-degenerate");
  MCS_EXPECTS(cell_side_m > 0.0, "cell side must be positive");
  rows_ = std::max<std::int32_t>(1, static_cast<std::int32_t>(box.height_m() / cell_side_m));
  cols_ = std::max<std::int32_t>(1, static_cast<std::int32_t>(box.width_m() / cell_side_m));
  lat_step_ = (box.north_east.lat - box.south_west.lat) / rows_;
  lon_step_ = (box.north_east.lon - box.south_west.lon) / cols_;
}

CellId GridMap::cell_of(const LatLon& p) const {
  MCS_EXPECTS(std::isfinite(p.lat) && std::isfinite(p.lon), "cell_of needs finite coordinates");
  // Clamp in double: a far-away point's cell index need not fit an int32.
  const double row = std::floor((p.lat - box_.south_west.lat) / lat_step_);
  const double col = std::floor((p.lon - box_.south_west.lon) / lon_step_);
  return cell_at(static_cast<std::int32_t>(std::clamp(row, 0.0, rows_ - 1.0)),
                 static_cast<std::int32_t>(std::clamp(col, 0.0, cols_ - 1.0)));
}

LatLon GridMap::center_of(CellId cell) const {
  MCS_EXPECTS(valid(cell), "invalid cell id");
  const auto row = row_of(cell);
  const auto col = col_of(cell);
  return LatLon{.lat = box_.south_west.lat + (row + 0.5) * lat_step_,
                .lon = box_.south_west.lon + (col + 0.5) * lon_step_};
}

std::int32_t GridMap::row_of(CellId cell) const {
  MCS_EXPECTS(valid(cell), "invalid cell id");
  return cell / cols_;
}

std::int32_t GridMap::col_of(CellId cell) const {
  MCS_EXPECTS(valid(cell), "invalid cell id");
  return cell % cols_;
}

CellId GridMap::cell_at(std::int32_t row, std::int32_t col) const {
  MCS_EXPECTS(row >= 0 && row < rows_ && col >= 0 && col < cols_, "cell coordinates out of range");
  return row * cols_ + col;
}

bool GridMap::valid(CellId cell) const { return cell >= 0 && cell < cell_count(); }

std::int32_t GridMap::chebyshev(CellId a, CellId b) const {
  const auto dr = std::abs(row_of(a) - row_of(b));
  const auto dc = std::abs(col_of(a) - col_of(b));
  return std::max(dr, dc);
}

std::vector<CellId> GridMap::neighborhood(CellId cell, std::int32_t radius) const {
  MCS_EXPECTS(valid(cell), "invalid cell id");
  MCS_EXPECTS(radius >= 0, "radius must be non-negative");
  const auto row = row_of(cell);
  const auto col = col_of(cell);
  std::vector<CellId> cells;
  for (std::int32_t r = std::max(0, row - radius); r <= std::min(rows_ - 1, row + radius); ++r) {
    for (std::int32_t c = std::max(0, col - radius); c <= std::min(cols_ - 1, col + radius); ++c) {
      cells.push_back(cell_at(r, c));
    }
  }
  return cells;
}

}  // namespace mcs::geo
