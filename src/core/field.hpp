// Typed grid storage.
//
// A Field is a dense, page-aligned array of doubles over an N-D shape
// (dimension 0 = unit stride).  A Problem bundles everything one iterative
// stencil run needs: the double-buffered value field (the paper runs "two
// copies of X"), the stencil, and — for the banded-matrix case — one band
// field per stencil tap.  Fields register with a numa::PageTable when the
// run is instrumented, so first-touch ownership and traffic can be tracked.
#pragma once

#include <optional>
#include <vector>

#include "common/aligned.hpp"
#include "common/types.hpp"
#include "core/stencil.hpp"
#include "numa/page_table.hpp"

namespace nustencil::core {

/// The deterministic hash-based initial condition shared by
/// Problem::initialize/fill_row and the red-black smoother, so in-place
/// and double-buffered experiments start from identical data.
double initial_value(Index cell, unsigned seed);

class Field {
 public:
  explicit Field(Coord shape);

  const Coord& shape() const { return shape_; }
  const Coord& strides() const { return strides_; }
  Index volume() const { return volume_; }

  /// Storage extent of the unit-stride dimension (== shape[0]: rows are
  /// dense).
  Index xstride() const { return shape_[0]; }
  /// Allocated elements (== volume()).
  Index storage_volume() const { return volume_; }

  double* data() { return data_; }
  const double* data() const { return data_; }

  double& at(const Coord& pos) { return data_[linear_index(pos, strides_)]; }
  double at(const Coord& pos) const { return data_[linear_index(pos, strides_)]; }

  /// Registers this field's storage in `pages` (idempotent per table).
  void attach(numa::PageTable& pages, const std::string& name);
  bool attached() const { return region_.has_value(); }
  numa::RegionId region() const;

  /// Byte offset of element `elem` within the region (elements are doubles).
  static Index byte_of(Index elem) { return elem * static_cast<Index>(sizeof(double)); }

 private:
  Coord shape_;
  Coord strides_;
  Index volume_;
  AlignedBuffer buffer_;
  double* data_;
  std::optional<numa::RegionId> region_;
};

/// The complete state of one iterative stencil problem.
class Problem {
 public:
  /// Problem on `shape` with double buffering; all fields (both value
  /// buffers and every band) share one dense layout.
  Problem(Coord shape, StencilSpec stencil);

  const Coord& shape() const { return shape_; }
  const StencilSpec& stencil() const { return stencil_; }

  /// Buffer holding the values of time step `t` (two-copy Jacobi layout).
  Field& buffer(long t) { return u_[static_cast<std::size_t>(t & 1)]; }
  const Field& buffer(long t) const { return u_[static_cast<std::size_t>(t & 1)]; }

  /// Band field for tap `p` (banded stencils only).
  Field& band(int p);
  const Field& band(int p) const;
  bool has_bands() const { return !bands_.empty(); }

  /// Fills buffer 0 with a deterministic pseudo-random initial condition
  /// and, for banded stencils, fills the bands with stable per-cell
  /// coefficients (positive, rows summing to 1).
  void initialize(unsigned seed = 42);

  /// Fills cells [begin, end) (linear indices) of buffer 0 and the bands —
  /// the same values initialize() would write, so NUMA-aware schemes can
  /// first-touch their tiles in parallel without changing the data.
  void fill_row(Index begin, Index end, unsigned seed = 42);

  /// Registers all fields with `pages`.
  void attach(numa::PageTable& pages);

  Index volume() const { return u_[0].volume(); }
  Index storage_volume() const { return u_[0].storage_volume(); }

  /// Bytes one full-domain sweep reads + writes (both value buffers plus
  /// every band): the algorithmic traffic of a sweep, the numerator of
  /// kernel_report's GB/s column.
  Index sweep_bytes() const {
    return (2 + static_cast<Index>(bands_.size())) * storage_volume() *
           static_cast<Index>(sizeof(double));
  }

 private:
  Coord shape_;
  StencilSpec stencil_;
  std::vector<Field> u_;      // exactly 2 entries
  std::vector<Field> bands_;  // npoints entries for banded stencils
};

}  // namespace nustencil::core
