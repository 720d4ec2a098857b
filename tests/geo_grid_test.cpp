// Unit tests for the geographic substrate: distances, bounding boxes, and
// the 2 km grid the paper lays over Shanghai.
#include "geo/grid.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/check.hpp"

namespace mcs::geo {
namespace {

TEST(Distance, ZeroForIdenticalPoints) {
  const LatLon p{31.2, 121.5};
  EXPECT_DOUBLE_EQ(distance_m(p, p), 0.0);
}

TEST(Distance, OneDegreeLatitudeIs111km) {
  const LatLon a{31.0, 121.5};
  const LatLon b{32.0, 121.5};
  EXPECT_NEAR(distance_m(a, b), 111195.0, 200.0);
}

TEST(Distance, Symmetric) {
  const LatLon a{31.0, 121.2};
  const LatLon b{31.3, 121.8};
  EXPECT_NEAR(distance_m(a, b), distance_m(b, a), 1e-9);
}

TEST(BoundingBox, ContainsInteriorAndEdges) {
  const auto box = shanghai_bounding_box();
  EXPECT_TRUE(box.contains({31.2, 121.5}));
  EXPECT_TRUE(box.contains(box.south_west));
  EXPECT_TRUE(box.contains(box.north_east));
  EXPECT_FALSE(box.contains({30.0, 121.5}));
  EXPECT_FALSE(box.contains({31.2, 122.5}));
}

TEST(BoundingBox, ShanghaiExtentIsPlausible) {
  const auto box = shanghai_bounding_box();
  EXPECT_GT(box.width_m(), 50000.0);
  EXPECT_LT(box.width_m(), 100000.0);
  EXPECT_GT(box.height_m(), 40000.0);
  EXPECT_LT(box.height_m(), 80000.0);
}

class GridFixture : public ::testing::Test {
 protected:
  GridMap grid_{shanghai_bounding_box(), 2000.0};
};

TEST_F(GridFixture, DimensionsMatchTwoKmCells) {
  // ~76 km x ~55 km at 2 km cells.
  EXPECT_GT(grid_.cols(), 30);
  EXPECT_LT(grid_.cols(), 45);
  EXPECT_GT(grid_.rows(), 20);
  EXPECT_LT(grid_.rows(), 35);
  EXPECT_EQ(grid_.cell_count(), grid_.rows() * grid_.cols());
}

TEST_F(GridFixture, CellOfCenterRoundTrips) {
  for (CellId cell = 0; cell < grid_.cell_count(); cell += 37) {
    EXPECT_EQ(grid_.cell_of(grid_.center_of(cell)), cell);
  }
}

TEST_F(GridFixture, RowColDecomposition) {
  for (CellId cell : {CellId{0}, CellId{5}, grid_.cell_count() - 1}) {
    EXPECT_EQ(grid_.cell_at(grid_.row_of(cell), grid_.col_of(cell)), cell);
  }
}

TEST_F(GridFixture, OutOfBoxPointsClampToBoundary) {
  const auto box = grid_.box();
  const CellId far_south = grid_.cell_of({box.south_west.lat - 1.0, 121.5});
  EXPECT_EQ(grid_.row_of(far_south), 0);
  const CellId far_east = grid_.cell_of({31.2, box.north_east.lon + 1.0});
  EXPECT_EQ(grid_.col_of(far_east), grid_.cols() - 1);
}

TEST_F(GridFixture, InvalidCellThrows) {
  EXPECT_THROW(grid_.center_of(-1), common::PreconditionError);
  EXPECT_THROW(grid_.center_of(grid_.cell_count()), common::PreconditionError);
  EXPECT_THROW(grid_.cell_at(-1, 0), common::PreconditionError);
  EXPECT_THROW(grid_.cell_at(0, grid_.cols()), common::PreconditionError);
}

TEST_F(GridFixture, ChebyshevDistance) {
  const CellId a = grid_.cell_at(3, 4);
  const CellId b = grid_.cell_at(5, 1);
  EXPECT_EQ(grid_.chebyshev(a, b), 3);
  EXPECT_EQ(grid_.chebyshev(a, a), 0);
}

TEST_F(GridFixture, NeighborhoodInteriorIsFullSquare) {
  const CellId center = grid_.cell_at(10, 10);
  EXPECT_EQ(grid_.neighborhood(center, 1).size(), 9u);
  EXPECT_EQ(grid_.neighborhood(center, 2).size(), 25u);
  EXPECT_EQ(grid_.neighborhood(center, 0).size(), 1u);
}

TEST_F(GridFixture, NeighborhoodClipsAtCorner) {
  const CellId corner = grid_.cell_at(0, 0);
  EXPECT_EQ(grid_.neighborhood(corner, 1).size(), 4u);
  EXPECT_EQ(grid_.neighborhood(corner, 2).size(), 9u);
}

TEST_F(GridFixture, NeighborhoodContainsSelfAndIsInRadius) {
  const CellId center = grid_.cell_at(7, 9);
  const auto cells = grid_.neighborhood(center, 2);
  bool has_self = false;
  for (CellId cell : cells) {
    EXPECT_LE(grid_.chebyshev(center, cell), 2);
    has_self = has_self || cell == center;
  }
  EXPECT_TRUE(has_self);
}

TEST(GridConstruction, RejectsDegenerateInputs) {
  const auto box = shanghai_bounding_box();
  EXPECT_THROW(GridMap(box, 0.0), common::PreconditionError);
  EXPECT_THROW(GridMap(box, -5.0), common::PreconditionError);
  BoundingBox bad{{31.0, 121.0}, {30.0, 122.0}};
  EXPECT_THROW(GridMap(bad, 2000.0), common::PreconditionError);
}

TEST(GridConstruction, CellSideControlsResolution) {
  const auto box = shanghai_bounding_box();
  const GridMap coarse(box, 10000.0);
  const GridMap fine(box, 1000.0);
  EXPECT_GT(fine.cell_count(), coarse.cell_count() * 50);
}

TEST_F(GridFixture, NonFiniteCoordinatesThrowAndFarPointsClampInDouble) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(grid_.cell_of({nan, 121.5}), common::PreconditionError);
  EXPECT_THROW(grid_.cell_of({31.2, nan}), common::PreconditionError);
  EXPECT_THROW(grid_.cell_of({inf, 121.5}), common::PreconditionError);
  EXPECT_THROW(grid_.cell_of({31.2, -inf}), common::PreconditionError);
  // Cell indices far outside int32 clamp to the boundary before any cast.
  EXPECT_EQ(grid_.cell_of({1e300, 1e300}), grid_.cell_at(grid_.rows() - 1, grid_.cols() - 1));
  EXPECT_EQ(grid_.cell_of({-1e300, -std::numeric_limits<double>::max()}), grid_.cell_at(0, 0));
  EXPECT_EQ(grid_.cell_of({31.2, 1e12}), grid_.cell_of({31.2, grid_.box().north_east.lon}));
}

TEST(Wgs84Range, RejectsNonFiniteAndOutOfRangeCoordinates) {
  EXPECT_TRUE(within_wgs84({90.0, -180.0}));
  EXPECT_TRUE(within_wgs84({-90.0, 180.0}));
  EXPECT_FALSE(within_wgs84({90.5, 0.0}));
  EXPECT_FALSE(within_wgs84({0.0, -180.5}));
  EXPECT_FALSE(within_wgs84({std::numeric_limits<double>::quiet_NaN(), 0.0}));
  EXPECT_FALSE(within_wgs84({0.0, std::numeric_limits<double>::quiet_NaN()}));
  EXPECT_FALSE(within_wgs84({std::numeric_limits<double>::infinity(), 0.0}));
}

}  // namespace
}  // namespace mcs::geo
