// Compiled batched inference over fitted tree ensembles.
//
// The reference predictors (GbtTree::predict, DecisionTree::predict_one)
// walk per-tree node vectors one row at a time — pointer chasing through
// scattered allocations, re-touching every tree's nodes for every row.
// CompiledEnsemble flattens a fitted GbtRegressor or RandomForest into one
// contiguous node pool (leaf payloads in a parallel array) and predicts
// blockwise: rows are processed in small tiles with the tree loop outside
// the row loop, so one tree's nodes stay cache-resident while a whole tile
// streams through them, and row tiles fan out across a ThreadPool.
//
// The pool is a bin-code pool: every distinct split threshold of each
// feature becomes an entry in a sorted per-feature cut table, node
// thresholds shrink to the index of their cut, and each input row is
// binned ONCE (one code per feature via a branchless chop over the cut
// table). Because the code of a value v is exactly #{cuts < v}, the walk
// comparison `code(v) <= cut_index` decides identically to `v <=
// threshold` — the pool is a lossless re-encoding, not an approximation.
// Each tree's nodes are renumbered in BFS order so an internal node's two
// children always sit adjacent, and a node packs into ONE word: feature |
// cut index | tree-local index of the left child (right = left + 1). A
// walk step is two loads — the node word and the row's code — plus `next =
// child_base + (code > cut)`.
//
// The word width is a property of the model, not a setting:
//   - 32-bit word (bits [0,8) feature, [8,16) cut, [16,32) left child;
//     uint8 row codes) when the model has at most 255 features, at most
//     255 cuts on every feature and at most 65535 nodes in every tree —
//     as every single fit on at most 255 features to depth <= 15 has;
//   - 64-bit word (bits [0,16) feature, [16,32) cut, [32,64) left child;
//     uint16 row codes) otherwise: warm-refit generations that add cuts
//     past 255, wide feature sets, huge trees.
// A leaf stores the all-ones cut (255 or 0xFFFF, which no internal node
// carries because a feature's cut indices stop one below its cut count)
// and points at itself, so `code > cut` is always false there and the
// leaf self-loops. compile() throws std::length_error for a model beyond
// the 64-bit word: more than 65536 features or more than 65535 distinct
// thresholds on one feature.
//
// Traversals are branch-free and fixed-length: since leaves self-loop,
// walking any row for exactly depth(tree) steps lands on its leaf with no
// per-step leaf test, and a lane group of rows walks in lock-step to hide
// the node-fetch latency behind independent loads. For GBT the lane
// group's running sums stay in registers across the whole ensemble, so
// each tree costs a walk plus one add.
//
// Determinism contract: predictions are bit-identical to the reference
// walking path at any thread count. Every (row, output) accumulator sums
// leaf contributions in exactly the reference tree order, rows are
// partitioned into chunks that never split a (row, output) pair, and no
// cross-row arithmetic exists — so chunking and tiling cannot change a
// single result bit.
//
// Single rows (the serve path) walk a group of kGroup trees in lock-step:
// a tree walk is a chain of dependent loads, so walking one tree at a
// time leaves the core waiting on one load per step, while sixteen
// independent chains keep sixteen loads in flight. Each group runs for
// its deepest tree's step count (leaves self-loop, so shallower trees
// idle on their leaf) and its leaves are then added in boosting order,
// so results stay bit-identical.
//
// Compile once at train/load time (CrossArchPredictor does); compilation
// is the cut-table build plus one BFS pass over the nodes, and the
// compiled form is immutable.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <type_traits>

#include "common/thread_pool.hpp"
#include "ml/matrix.hpp"

namespace mphpc::ml {

class GbtRegressor;
class RandomForest;

class CompiledEnsemble {
 public:
  /// Reusable per-caller state for single-row prediction: holds the row's
  /// bin codes so hot serving paths never allocate per request. A
  /// default-constructed scratch is valid for any engine; it grows to the
  /// engine's feature count on first use and is then allocation-free.
  struct RowScratch {
    std::vector<std::uint8_t> codes;        ///< 32-bit word engines
    std::vector<std::uint16_t> wide_codes;  ///< 64-bit word engines
  };

  /// Default-constructed engines are empty (compiled() == false).
  CompiledEnsemble() = default;

  /// Flattens a fitted model. The model can be dropped afterwards for
  /// inference-only serving; keep it for serialization or importances.
  /// Throws std::length_error when the model is beyond the 64-bit word
  /// (more than 65536 features or 65535 distinct thresholds on a feature).
  [[nodiscard]] static CompiledEnsemble compile(const GbtRegressor& model);
  [[nodiscard]] static CompiledEnsemble compile(const RandomForest& model);

  [[nodiscard]] bool compiled() const noexcept { return !roots_.empty(); }
  [[nodiscard]] std::size_t n_features() const noexcept { return n_features_; }
  [[nodiscard]] std::size_t n_outputs() const noexcept { return n_outputs_; }
  [[nodiscard]] std::size_t n_nodes() const noexcept { return n_nodes_; }

  /// Width of the packed node word the model compiled to: 32 or 64.
  [[nodiscard]] int word_bits() const noexcept { return q_node32_.empty() ? 64 : 32; }

  /// Batched prediction, bit-identical to the source model's predict().
  /// `pool` distributes row chunks; results do not depend on it. A batch
  /// smaller than one lane group stays on the calling thread.
  [[nodiscard]] Matrix predict(const Matrix& x, ThreadPool* pool = nullptr) const;

  /// Single-row prediction into `out` (size n_outputs()). Uses a
  /// thread-local scratch; see the overload below for caller-owned state.
  void predict_row(std::span<const double> x, std::span<double> out) const;

  /// Single-row prediction with caller-owned scratch: allocation-free
  /// after the scratch's first use with this engine's feature count.
  void predict_row(std::span<const double> x, std::span<double> out,
                   RowScratch& scratch) const;

 private:
  enum class Kind : std::uint8_t { kGbt = 0, kForest = 1 };

  /// Rows per tile: big enough to amortize per-tree loop overhead, small
  /// enough that a tile's accumulators and one tree's hot nodes share L1.
  static constexpr std::size_t kTile = 512;
  /// Rows per lock-step lane group in the tile kernels: enough independent
  /// chains to saturate the load ports, few enough that lane state stays
  /// in registers. Smaller batches take the single-row kernel.
  static constexpr std::size_t kLanes = 8;
  /// Trees per lock-step group in the single-row bin-code walk, chosen by
  /// BM_GbtPredictRowServe on the Fig. 2 profile (1,600 depth-8 trees,
  /// Release build, 4-vCPU AVX-512 host), median per row: 1 tree 58 us,
  /// 8 trees 27-29 us, 16 trees 22 us, 32 trees 25 us.
  static constexpr std::size_t kGroup = 16;

  /// Row bin code of a node word: uint8 for the 32-bit word, uint16 for
  /// the 64-bit one.
  template <typename Word>
  using Code = std::conditional_t<sizeof(Word) == 4, std::uint8_t, std::uint16_t>;

  /// Predicts rows [begin, end) of `x` into `out`, tile by tile: each tile
  /// is binned once into a chunk-owned code buffer, then walked.
  template <typename Word>
  void predict_rows(const Word* pool, const Matrix& x, std::size_t begin,
                    std::size_t end, Matrix& out) const;
  /// Bins rows [lo, hi) of `x` into `codes` ((hi - lo) * n_features_ codes,
  /// row-major).
  template <typename C>
  void bin_tile(const Matrix& x, std::size_t lo, std::size_t hi, C* codes) const;
  /// The walk half of the tile kernel; `codes` already binned.
  template <typename Word>
  void walk_tile_quantized(const Word* pool, std::size_t lo, std::size_t hi,
                           Matrix& out, const Code<Word>* codes) const;

  /// Lays out every tree (flat node vectors, root at 0, each a true tree;
  /// `payload(leaf)` gives a leaf's pool payload) into the bin-code pool:
  /// the cut tables, then each tree's nodes in BFS order. Every compile()
  /// ends here.
  template <typename Node, typename Payload>
  void build_pools(const std::vector<const std::vector<Node>*>& trees,
                   const Payload& payload);
  /// Fills cuts_/cut_begin_ from the trees' thresholds; returns true when
  /// the model fits the 32-bit word.
  template <typename Node>
  [[nodiscard]] bool build_cut_tables(
      const std::vector<const std::vector<Node>*>& trees);

  /// The single-row bin-code kernel: predicts one pre-binned row into
  /// `out` (size n_outputs()), walking kGroup trees at a time.
  template <typename Word>
  void predict_codes_row(const Word* pool, const Code<Word>* codes,
                         double* out) const noexcept;
  /// Walks trees [t, t + kGroup) in lock-step for one pre-binned row and
  /// stores each tree's leaf as a GLOBAL pool index into q_payload_.
  template <typename Word>
  void walk_group(const Word* pool, std::size_t t, const Code<Word>* codes,
                  std::array<std::uint32_t, kGroup>& leaf) const noexcept;

  /// Bin code of value `v` on feature `f`: #{cuts of f < v}, so
  /// `code_of(f, x[f]) <= cut_index` decides exactly like `x[f] <=
  /// threshold`. The search is a branchless binary chop (the advance is a
  /// masked add, not a data-dependent jump): std::lower_bound mispredicts
  /// ~50% per probe on real feature values, which costs as much as the
  /// tree walks it feeds.
  [[nodiscard]] std::size_t code_of(std::size_t f, double v) const noexcept {
    const double* start = cuts_.data() + cut_begin_[f];
    const double* base = start;
    std::size_t n = cut_begin_[f + 1] - cut_begin_[f];
    while (n > 1) {
      const std::size_t half = n / 2;
      base += half & (0 - static_cast<std::size_t>(base[half - 1] < v));
      n -= half;
    }
    const std::size_t below = n == 1 && base[0] < v ? 1 : 0;
    return static_cast<std::size_t>(base - start) + below;
  }

  /// Bin-codes one row: codes[f] = code_of(f, xr[f]).
  template <typename C>
  void bin_row(const double* xr, C* codes) const noexcept {
    for (std::size_t f = 0; f < n_features_; ++f) {
      codes[f] = static_cast<C>(code_of(f, xr[f]));
    }
  }

  /// One step of the walk: `w` is a packed node word, `qr` the row's bin
  /// codes. A word is three fields — feature and cut at kBits each, the
  /// left child in the upper half — and decodes to `left_child + (code >
  /// cut)`: branch-free (flag materialized by setcc, no data-dependent
  /// jump), and a leaf's all-ones cut makes the predicate false so the
  /// self-loop holds.
  template <typename Word>
  [[nodiscard]] static std::uint32_t qstep(Word w, const Code<Word>* qr) noexcept {
    constexpr unsigned kBits = 8 * sizeof(Code<Word>);
    const Code<Word> code = qr[w & ((Word{1} << kBits) - 1)];
    const auto cut = static_cast<Code<Word>>(w >> kBits);
    return static_cast<std::uint32_t>(w >> (2 * kBits)) +
           static_cast<std::uint32_t>(code > cut);
  }

  /// Walk over one tree's packed nodes for a pre-binned row; `origin` is
  /// the tree's pool offset (node words hold tree-local child indices).
  /// Returns the leaf's GLOBAL pool index into q_payload_.
  template <typename Word>
  [[nodiscard]] static std::uint32_t qwalk(const Word* pool, std::int32_t origin,
                                           std::int32_t steps,
                                           const Code<Word>* qr) noexcept {
    const Word* qn = pool + static_cast<std::size_t>(origin);
    std::uint32_t local = 0;
    for (std::int32_t s = 0; s < steps; ++s) local = qstep(qn[local], qr);
    return static_cast<std::uint32_t>(origin) + local;
  }

  Kind kind_ = Kind::kGbt;
  std::vector<std::int32_t> roots_;  ///< pool offset of each tree's root
  std::vector<std::int32_t> depth_;  ///< per-tree walk length (max depth)
  // kGbt: trees [output_begin_[k], output_begin_[k+1]) belong to output k,
  // in boosting-round order; base_[k] is the per-output prior.
  std::vector<std::int32_t> output_begin_;
  std::vector<double> base_;
  // kForest: flat leaf payloads, value_width_ doubles
  // per leaf (== n_outputs_).
  std::vector<double> values_;
  std::size_t value_width_ = 0;
  std::size_t n_features_ = 0;
  std::size_t n_outputs_ = 0;
  std::size_t n_nodes_ = 0;
  double n_trees_ = 1.0;  ///< kForest: mean divisor (reference divides)

  // The node pool: each tree's nodes in BFS order from roots_[t], packed
  // into q_node32_ or q_node64_ (exactly one is non-empty; see the header
  // comment for the two layouts). q_payload_ holds, in the same order, the
  // scalar leaf weight for GBT, the values_ offset for forests, and 0
  // for internal nodes. Per-feature sorted distinct cut values live flat in
  // cuts_ with cut_begin_ offsets (size n_features_ + 1), exactly the
  // FeatureBins layout from hist training.
  std::vector<double> cuts_;
  std::vector<std::uint32_t> cut_begin_;
  std::vector<std::uint32_t> q_node32_;
  std::vector<std::uint64_t> q_node64_;
  std::vector<double> q_payload_;
};

}  // namespace mphpc::ml
