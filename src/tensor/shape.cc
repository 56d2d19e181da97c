#include "shape.h"

#include <sstream>

#include "common/logging.h"

namespace reuse {

Shape::Shape(std::initializer_list<int64_t> dims)
{
    assign(dims.begin(), dims.size());
}

Shape::Shape(const std::vector<int64_t> &dims)
{
    assign(dims.data(), dims.size());
}

void
Shape::assign(const int64_t *dims, size_t rank)
{
    REUSE_ASSERT(rank <= kMaxRank,
                 "rank " << rank << " exceeds the maximum " << kMaxRank);
    for (size_t i = 0; i < rank; ++i) {
        REUSE_ASSERT(dims[i] >= 0, "negative dimension " << dims[i]);
        dims_[i] = dims[i];
    }
    rank_ = rank;
}

int64_t
Shape::dim(size_t i) const
{
    REUSE_ASSERT(i < rank_,
                 "dim index " << i << " out of range for rank "
                              << rank_);
    return dims_[i];
}

int64_t
Shape::numel() const
{
    int64_t n = 1;
    for (size_t i = 0; i < rank_; ++i)
        n *= dims_[i];
    return n;
}

std::vector<int64_t>
Shape::strides() const
{
    std::vector<int64_t> s(rank_, 1);
    for (size_t i = rank_; i-- > 1;)
        s[i - 1] = s[i] * dims_[i];
    return s;
}

int64_t
Shape::offset(const std::vector<int64_t> &index) const
{
    REUSE_ASSERT(index.size() == rank_,
                 "index rank " << index.size() << " vs shape rank "
                               << rank_);
    int64_t off = 0;
    int64_t stride = 1;
    for (size_t i = rank_; i-- > 0;) {
        REUSE_ASSERT(index[i] >= 0 && index[i] < dims_[i],
                     "index " << index[i] << " out of range for dim "
                              << i << " of size " << dims_[i]);
        off += index[i] * stride;
        stride *= dims_[i];
    }
    return off;
}

std::string
Shape::str() const
{
    if (rank_ == 0)
        return "scalar";
    std::ostringstream oss;
    for (size_t i = 0; i < rank_; ++i) {
        if (i)
            oss << "x";
        oss << dims_[i];
    }
    return oss.str();
}

} // namespace reuse
