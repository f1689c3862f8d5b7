#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/point_set.h"

namespace perfbench {

using zsky::Coord;

// True iff row `a` strictly dominates row `b` (<= everywhere, < somewhere).
bool Dominates(const Coord* a, const Coord* b, uint32_t dim);

// Reference skyline of the `n` row-major points in `rows`, restricted to
// the rows with alive[i] != 0 (all rows when `alive` is null). Returns
// ascending row ids. Written independently of the library (sort by
// coordinate sum, then a block-nested-loop window: a dominator always has
// a strictly smaller sum), so the answers it checks are not checked
// against themselves. Blocks of the sorted order are tested against the
// window on `threads` threads.
std::vector<uint32_t> ReferenceSkyline(const Coord* rows, size_t n,
                                       uint32_t dim, const uint8_t* alive,
                                       unsigned threads);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
