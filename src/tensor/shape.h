/**
 * @file
 * N-dimensional shape descriptor for dense tensors.
 */

#ifndef REUSE_DNN_TENSOR_SHAPE_H
#define REUSE_DNN_TENSOR_SHAPE_H

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace reuse {

/**
 * Shape of a dense row-major tensor.
 *
 * Dimensions are stored outermost-first.  A rank-0 shape denotes a
 * scalar with one element.  The dimensions live inline, so a shape
 * (and every tensor built on one) costs no heap allocation of its
 * own.
 */
class Shape
{
  public:
    /** Highest rank a shape holds (conv3d weights use 5). */
    static constexpr size_t kMaxRank = 6;

    Shape() = default;

    /** Constructs a shape from a dimension list, e.g. {3, 66, 200}. */
    Shape(std::initializer_list<int64_t> dims);

    /** Constructs a shape from a vector of dimensions. */
    explicit Shape(const std::vector<int64_t> &dims);

    /** Number of dimensions. */
    size_t rank() const { return rank_; }

    /** Size of dimension `i` (0 <= i < rank). */
    int64_t dim(size_t i) const;

    /** A copy of all dimensions, outermost first. */
    std::vector<int64_t> dims() const
    {
        return std::vector<int64_t>(dims_.begin(), dims_.begin() + rank_);
    }

    /** Total number of elements (1 for scalars). */
    int64_t numel() const;

    /** Row-major strides, in elements. */
    std::vector<int64_t> strides() const;

    /** Flattens a multi-index into a row-major linear offset. */
    int64_t offset(const std::vector<int64_t> &index) const;

    /** Human-readable form, e.g. "3x66x200". */
    std::string str() const;

    bool operator==(const Shape &other) const
    {
        return rank_ == other.rank_ && dims_ == other.dims_;
    }
    bool operator!=(const Shape &other) const { return !(*this == other); }

  private:
    /** Checks and stores `rank` dimensions. */
    void assign(const int64_t *dims, size_t rank);

    /** Dimensions; slots past rank_ stay zero, so == compares all. */
    std::array<int64_t, kMaxRank> dims_{};
    size_t rank_ = 0;
};

} // namespace reuse

#endif // REUSE_DNN_TENSOR_SHAPE_H
