/** @file Unit tests for the Shape descriptor. */

#include <gtest/gtest.h>

#include "tensor/shape.h"

namespace reuse {
namespace {

TEST(Shape, ScalarDefaults)
{
    Shape s;
    EXPECT_EQ(s.rank(), 0u);
    EXPECT_EQ(s.numel(), 1);
    EXPECT_EQ(s.str(), "scalar");
}

TEST(Shape, RankAndDims)
{
    Shape s({3, 66, 200});
    EXPECT_EQ(s.rank(), 3u);
    EXPECT_EQ(s.dim(0), 3);
    EXPECT_EQ(s.dim(1), 66);
    EXPECT_EQ(s.dim(2), 200);
    EXPECT_EQ(s.numel(), 3 * 66 * 200);
    EXPECT_EQ(s.str(), "3x66x200");
}

TEST(Shape, StridesAreRowMajor)
{
    Shape s({2, 3, 4});
    const auto strides = s.strides();
    ASSERT_EQ(strides.size(), 3u);
    EXPECT_EQ(strides[0], 12);
    EXPECT_EQ(strides[1], 4);
    EXPECT_EQ(strides[2], 1);
}

TEST(Shape, OffsetMatchesStrides)
{
    Shape s({2, 3, 4});
    EXPECT_EQ(s.offset({0, 0, 0}), 0);
    EXPECT_EQ(s.offset({1, 2, 3}), 12 + 8 + 3);
    EXPECT_EQ(s.offset({0, 1, 2}), 6);
}

TEST(Shape, OffsetCoversAllElementsUniquely)
{
    Shape s({3, 4});
    std::vector<bool> seen(static_cast<size_t>(s.numel()), false);
    for (int64_t i = 0; i < 3; ++i) {
        for (int64_t j = 0; j < 4; ++j) {
            const int64_t off = s.offset({i, j});
            ASSERT_GE(off, 0);
            ASSERT_LT(off, s.numel());
            EXPECT_FALSE(seen[static_cast<size_t>(off)]);
            seen[static_cast<size_t>(off)] = true;
        }
    }
}

TEST(Shape, EqualityComparesDims)
{
    EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
    EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
    EXPECT_NE(Shape({2, 3}), Shape({2, 3, 1}));
    EXPECT_NE(Shape({2, 3}), Shape({2, 3, 0}));
}

TEST(Shape, VectorConstructor)
{
    std::vector<int64_t> dims{5, 6};
    Shape s(dims);
    EXPECT_EQ(s.numel(), 30);
}

TEST(ShapeDeath, OutOfRangeDimPanics)
{
    Shape s({2, 2});
    EXPECT_DEATH((void)s.dim(5), "out of range");
}

TEST(ShapeDeath, RankAboveMaximumPanics)
{
    const std::vector<int64_t> dims(Shape::kMaxRank + 1, 1);
    EXPECT_DEATH(Shape{dims}, "exceeds the maximum");
}

TEST(ShapeDeath, BadIndexPanics)
{
    Shape s({2, 2});
    EXPECT_DEATH((void)s.offset({2, 0}), "out of range");
}

} // namespace
} // namespace reuse
