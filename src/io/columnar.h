#ifndef ZSKY_IO_COLUMNAR_H_
#define ZSKY_IO_COLUMNAR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/dataset_view.h"
#include "common/point_set.h"

namespace zsky {

// `.zsc` — the out-of-core columnar dataset format (docs/storage.md).
//
// One contiguous section per dimension so the SoA kernels of job 1's map
// wave (and the block-transposing RowBlockCursor of the write path) read
// straight from the page cache with sequential per-column access:
//
//   offset 0   magic "ZSC1"
//          4   version    u32   (= 1)
//          8   dim        u32   (1 .. kMaxDeserializedDim)
//         12   bits       u32   coordinate resolution (Quantizer bits)
//         16   count      u64   rows
//         24   col_offset u64[dim]  absolute byte offset of each column
//   then, 64-byte aligned, dim columns of count * sizeof(Coord) bytes.
//
// After the last column, again 64-byte aligned, an OPTIONAL per-block
// min/max sketch trailer (written by every current ColumnarWriter,
// tolerated as absent for pre-sketch files — readers that find no valid
// trailer simply do not prune):
//
//   offset T    magic "ZSKS"
//          T+4  sketch_block_rows u32   (= kColumnarSketchBlockRows)
//          T+8  num_blocks        u64   (= ceil(count / sketch_block_rows))
//          T+16 mins  Coord[num_blocks * dim]   (block-major)
//          then maxs  Coord[num_blocks * dim]
//
// where T = the end of the last column rounded up to the alignment.
// Old readers never look past their columns, so sketch-bearing files stay
// readable by them too.
//
// Little-endian, fixed layout; offsets let a future version append
// further sections without breaking readers. All header fields are
// validated with checked 64-bit arithmetic before any allocation or
// mapping is trusted (the same discipline as io/binary.h's
// DeserializePointSet).

inline constexpr char kColumnarMagic[4] = {'Z', 'S', 'C', '1'};
inline constexpr uint32_t kColumnarVersion = 1;
inline constexpr size_t kColumnarAlignment = 64;
inline constexpr char kColumnarSketchMagic[4] = {'Z', 'S', 'K', 'S'};
// Rows summarized per sketch block. 64k rows x 8d = 2 MiB of column data
// per block — coarse enough that the trailer stays tiny (a few hundred KB
// even at 110M rows), fine enough to skip most of a scan for a selective
// box.
inline constexpr uint64_t kColumnarSketchBlockRows = 64 * 1024;

// Byte offset of column `d` in a `.zsc` file of dimensionality `dim`.
uint64_t ColumnarHeaderBytes(uint32_t dim);

// Byte offset of the sketch trailer (the aligned end of the last column)
// in a `.zsc` file with `dim` dimensions and `count` rows. Exposed for
// tests that synthesize pre-sketch files by truncating here.
uint64_t ColumnarSketchOffset(uint32_t dim, uint64_t count);

// Streaming `.zsc` writer: declare the row count up front, append
// row-major chunks, Finish(). The writer scatters each chunk into
// per-column buffers and flushes them to the columns' file offsets with
// positioned writes, so converting an N-row dataset needs O(chunk) memory
// — never O(N). Not thread-safe.
class ColumnarWriter {
 public:
  // Buffered rows per flush. 256k rows x 8d = 8 MiB resident.
  static constexpr size_t kChunkRows = 256 * 1024;

  // Creates/truncates `path` and preallocates the full file. On failure
  // ok() is false and error() says why.
  ColumnarWriter(const std::string& path, uint32_t dim, uint64_t count,
                 uint32_t bits);
  ~ColumnarWriter();

  ColumnarWriter(const ColumnarWriter&) = delete;
  ColumnarWriter& operator=(const ColumnarWriter&) = delete;

  bool ok() const { return fd_ >= 0; }
  const std::string& error() const { return error_; }

  // Appends `rows` row-major points (rows * dim coords). Fails when the
  // declared count would be exceeded.
  bool AppendRows(const Coord* row_major, size_t rows);

  // Flushes the tail chunk and writes the header. Fails unless exactly
  // `count` rows were appended.
  bool Finish();

 private:
  bool FlushChunk();
  void FlushSketchBlock();
  bool WriteAt(uint64_t offset, const void* data, size_t bytes);
  void Fail(const std::string& reason);

  std::string path_;
  int fd_ = -1;
  uint32_t dim_ = 0;
  uint32_t bits_ = 0;
  uint64_t count_ = 0;
  uint64_t rows_written_ = 0;   // Rows flushed to disk.
  uint64_t rows_buffered_ = 0;  // Rows in the pending chunk.
  bool finished_ = false;
  std::vector<uint64_t> col_offsets_;
  std::vector<std::vector<Coord>> chunk_;  // One buffer per column.
  // Per-block min/max sketch accumulated while rows stream through
  // (satellite of docs/storage.md's scan pruning): running bounds of the
  // current block plus the flattened finished blocks, written as the
  // trailer by Finish().
  uint64_t sketch_offset_ = 0;
  uint64_t rows_in_sketch_block_ = 0;
  std::vector<Coord> block_mins_;    // dim entries, current block.
  std::vector<Coord> block_maxs_;
  std::vector<Coord> sketch_mins_;   // num_blocks * dim, block-major.
  std::vector<Coord> sketch_maxs_;
  std::string error_;
};

// One-shot converters.
bool WriteColumnarFile(const std::string& path, const DatasetView& points,
                       uint32_t bits, std::string* error);

// Streams a merged dataset to a new `.zsc`: the rows of `base` whose
// `base_alive` flag is non-zero (all rows when null), in row order,
// followed by the rows of `delta` whose `delta_alive` flag is non-zero
// (same convention). This is the write path's LSM-style merge over an
// mmap'd base (docs/updates.md): O(chunk) memory like the writer it
// wraps — the base streams through RowBlockCursor and is never
// materialized. Dimensions must match; returns false + `error` on I/O
// failure (a partial file may remain and should be unlinked by the
// caller).
bool WriteColumnarMerged(const std::string& path, const DatasetView& base,
                         const uint8_t* base_alive, const PointSet& delta,
                         const uint8_t* delta_alive, uint32_t bits,
                         std::string* error);

// An open, mmap'd `.zsc` dataset. The whole file is mapped read-only
// (MAP_SHARED); view() exposes the columns to the pipeline without any
// materialization. Thread-safe for concurrent reads; Release/Drop calls
// only zap residency, never contents.
class ColumnarDataset {
 public:
  struct Options {
    // madvise(MADV_SEQUENTIAL) on the mapping: the map wave streams each
    // column front-to-back, so read-ahead pays and used pages age fast.
    bool sequential = true;
    // madvise(MADV_WILLNEED): prefault eagerly (warm-run benchmarking).
    bool willneed = false;
    // Arm the view's release hook: RowBlockCursor drops the pages behind
    // the scan (madvise(MADV_DONTNEED)) as soon as a block is copied out,
    // bounding the mapping's resident set by the active blocks instead of
    // the dataset size. Dropped pages stay in the kernel page cache (the
    // mapping is file-backed), so later random gathers refault cheaply.
    bool bounded_residency = false;
    // Arm the view's readahead hook: scan consumers report the row range
    // they will need next, and a lazily-spawned worker thread faults its
    // pages in (madvise(MADV_WILLNEED) + touch) while the current range
    // is still being processed, hiding cold-run fault latency. Touched
    // bytes are metered under the same residency sweep window as consumed
    // bytes when bounded_residency is also set, so prefetch can never
    // grow the resident set past the budget's bound.
    bool readahead = false;
  };

  // Opens and validates `path`. Returns null + `error` on malformed
  // headers, impossible size math, or a file too short for its columns.
  static std::unique_ptr<ColumnarDataset> Open(const std::string& path,
                                               std::string* error,
                                               const Options& options);
  static std::unique_ptr<ColumnarDataset> Open(const std::string& path,
                                               std::string* error);
  ~ColumnarDataset();

  ColumnarDataset(const ColumnarDataset&) = delete;
  ColumnarDataset& operator=(const ColumnarDataset&) = delete;

  uint32_t dim() const { return dim_; }
  uint32_t bits() const { return bits_; }
  size_t size() const { return count_; }
  uint64_t file_bytes() const { return map_bytes_; }
  const std::string& path() const { return path_; }
  const Options& options() const { return options_; }

  // A columnar DatasetView over the mapping (release hook armed when
  // options.bounded_residency). Valid for this object's lifetime.
  DatasetView view() const;

  // Drops this mapping's resident pages AND asks the kernel to evict the
  // file's clean page-cache pages (posix_fadvise(DONTNEED)) — the
  // cold-run reset bench_outofcore uses between trials.
  void DropPageCache() const;

  // Reports rows [row_begin, row_end) as consumed by a scan or gather.
  // Consumed bytes are metered, and once a sweep window's worth has
  // accumulated the WHOLE mapping's page tables are dropped in one
  // madvise(MADV_DONTNEED) — so the mapping's resident set is bounded by
  // the sweep window regardless of how the kernel's fault-around or
  // large-folio mapping rounds individual faults.
  void ReleaseRows(size_t row_begin, size_t row_end) const;

  // Enqueues rows [row_begin, row_end) for the readahead worker (no-op
  // when Options::readahead is off). Non-blocking: the request lands in a
  // small latest-wins queue; the worker thread is spawned on first use.
  void RequestReadahead(size_t row_begin, size_t row_end) const;

  // True iff the file carried a valid sketch trailer.
  bool has_sketch() const { return sketch_blocks_ != 0; }
  size_t sketch_blocks() const { return sketch_blocks_; }

 private:
  ColumnarDataset() = default;

  void MeterConsumed(uint64_t bytes) const;
  void ReadaheadMain() const;
  void TouchRows(size_t row_begin, size_t row_end) const;

  std::string path_;
  Options options_;
  int fd_ = -1;
  void* map_ = nullptr;
  uint64_t map_bytes_ = 0;
  uint32_t dim_ = 0;
  uint32_t bits_ = 0;
  uint64_t count_ = 0;
  std::vector<const Coord*> columns_;
  // Sketch trailer sections (null / 0 when absent).
  const Coord* sketch_mins_ = nullptr;
  const Coord* sketch_maxs_ = nullptr;
  uint64_t sketch_block_rows_ = 0;
  uint64_t sketch_blocks_ = 0;
  // Consumed-byte meter driving the periodic whole-mapping residency
  // sweep (see ReleaseRows). Mutable: releasing residency is not a
  // logical mutation of the read-only dataset.
  mutable std::atomic<uint64_t> released_bytes_{0};

  // --- Readahead worker state (all mutable: prefetching is not a
  // logical mutation of the read-only dataset). The worker is spawned on
  // the first RequestReadahead and joined by the destructor.
  struct RaRange {
    size_t begin = 0;
    size_t end = 0;
    bool consumed = false;
  };
  static constexpr size_t kRaQueue = 16;   // Pending request slots.
  static constexpr size_t kRaDone = 64;    // Completed-range ring.
  mutable std::atomic<bool> ra_started_{false};
  mutable std::mutex ra_mu_;
  mutable std::condition_variable ra_cv_;
  mutable std::thread ra_thread_;
  mutable bool ra_stop_ = false;
  mutable std::vector<RaRange> ra_pending_;  // Bounded by kRaQueue.
  mutable RaRange ra_done_[kRaDone];
  mutable size_t ra_done_next_ = 0;
};

inline std::unique_ptr<ColumnarDataset> ColumnarDataset::Open(
    const std::string& path, std::string* error) {
  return Open(path, error, Options{});
}

}  // namespace zsky

#endif  // ZSKY_IO_COLUMNAR_H_
