// Geographic substrate: lat/lon points, a bounding box, and the 2 km × 2 km
// grid the paper lays over the map of Shanghai (Section IV-A). Grid cells are
// the "locations" of the mobility model; sensing tasks are pinned to cells.
#pragma once

#include <cstdint>
#include <vector>

namespace mcs::geo {

/// WGS-84 latitude/longitude in degrees.
struct LatLon {
  double lat = 0.0;
  double lon = 0.0;

  friend bool operator==(const LatLon&, const LatLon&) = default;
};

/// Whether `p` is a WGS-84 coordinate: latitude in [-90, 90] and longitude
/// in [-180, 180]. False for NaN and the infinities.
bool within_wgs84(const LatLon& p);

/// Great-circle distance in meters (haversine).
double distance_m(const LatLon& a, const LatLon& b);

/// Axis-aligned geographic bounding box.
struct BoundingBox {
  LatLon south_west;
  LatLon north_east;

  bool contains(const LatLon& p) const;
  double width_m() const;   ///< east-west extent at the box's mid latitude
  double height_m() const;  ///< north-south extent
};

/// Approximate bounding box of urban Shanghai used across the experiments.
BoundingBox shanghai_bounding_box();

/// Index of a grid cell; cells are numbered row-major, row 0 at the south.
using CellId = std::int32_t;
inline constexpr CellId kInvalidCell = -1;

/// Uniform grid over a bounding box with square cells of a given side length.
/// The last row/column absorb any remainder so the grid exactly covers the
/// box. Points outside the box clamp to the nearest boundary cell, matching
/// how trace points just outside the urban box are binned in practice.
class GridMap {
 public:
  /// Requires a non-degenerate box and positive cell side.
  GridMap(BoundingBox box, double cell_side_m);

  std::int32_t rows() const { return rows_; }
  std::int32_t cols() const { return cols_; }
  std::int32_t cell_count() const { return rows_ * cols_; }
  double cell_side_m() const { return cell_side_m_; }
  const BoundingBox& box() const { return box_; }
  /// Angular size of a cell, useful for jittering points inside a cell.
  double lat_step_deg() const { return lat_step_; }
  double lon_step_deg() const { return lon_step_; }

  /// The cell holding `p`, clamped to the grid. Requires finite coordinates.
  CellId cell_of(const LatLon& p) const;
  /// Geographic center of a cell; requires a valid id.
  LatLon center_of(CellId cell) const;
  std::int32_t row_of(CellId cell) const;
  std::int32_t col_of(CellId cell) const;
  CellId cell_at(std::int32_t row, std::int32_t col) const;
  bool valid(CellId cell) const;

  /// Chebyshev (king-move) distance between two cells in cell units.
  std::int32_t chebyshev(CellId a, CellId b) const;

  /// All cells within Chebyshev radius r of `cell` (including itself),
  /// clipped to the grid.
  std::vector<CellId> neighborhood(CellId cell, std::int32_t radius) const;

 private:
  BoundingBox box_;
  double cell_side_m_;
  std::int32_t rows_;
  std::int32_t cols_;
  double lat_step_;
  double lon_step_;
};

}  // namespace mcs::geo
