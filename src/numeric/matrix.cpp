#include "numeric/matrix.hpp"

namespace pim {

Matrix::Matrix(size_t rows, size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

void Matrix::set_zero() { data_.assign(data_.size(), 0.0); }

}  // namespace pim
