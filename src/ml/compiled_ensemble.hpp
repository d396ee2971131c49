// Compiled batched inference over fitted tree ensembles.
//
// The reference predictors (GbtTree::predict, DecisionTree::predict_one)
// walk per-tree node vectors one row at a time — pointer chasing through
// scattered allocations, re-touching every tree's nodes for every row.
// CompiledEnsemble flattens a fitted GbtRegressor, RandomForest, or
// DecisionTree into one contiguous structure-of-arrays node pool
// (feature / threshold / child-index arrays; leaf payloads inlined) and
// predicts blockwise: rows are processed in small tiles with the tree loop
// outside the row loop, so one tree's nodes stay cache-resident while a
// whole tile streams through them, and row tiles fan out across a
// ThreadPool.
//
// Traversals are branch-free and fixed-length: leaves are compiled as
// self-loops (left == right == self), so walking any row for exactly
// depth(tree) steps lands on its leaf with no per-step leaf test — every
// step is one conditional-move, and a lane group of rows walks in
// lock-step to hide the node-fetch latency behind independent loads. For
// GBT the lane group's running sums stay in registers across the whole
// ensemble, so each tree costs a walk plus one add.
//
// Determinism contract: predictions are bit-identical to the reference
// walking path at any thread count. Every (row, output) accumulator sums
// leaf contributions in exactly the reference tree order, rows are
// partitioned into chunks that never split a (row, output) pair, and no
// cross-row arithmetic exists — so chunking and tiling cannot change a
// single result bit.
//
// Every model that fits the bin-code ranges is served by a bin-code pool:
// every distinct split threshold of each feature becomes an entry in a
// sorted per-feature cut table, node thresholds shrink to the uint8 index
// of their cut, and each input row is binned ONCE (uint8 code per feature
// via a branchless chop over the cut table). Because the code of a value
// v is exactly #{cuts < v}, the walk comparison `code(v) <= cut_index`
// decides identically to `v <= threshold` — the pool is a lossless
// re-encoding, not an approximation. The pool itself is relaid out for
// the walk: each tree's nodes are renumbered in BFS order so an internal
// node's two children always sit adjacent, and a node packs into ONE
// word — 32 bits (uint8 feature | uint8 cut index | uint16 tree-local
// index of the left child; right = left + 1) when the model has at most
// 255 features, 64 bits with a uint16 feature field otherwise. A walk
// step is then two loads — the node word and the row's code byte — plus
// `next = child_base + (code > cut)`, versus five loads (feature,
// threshold, left, right, row value) in the exact kernel, at 4 bytes per
// hot node instead of 20. Leaves store cut = 255 (an impossible internal
// cut index, since codes reach at most 255 and real cut indices at most
// 254) with the child base pointing at themselves, so overshooting the
// walk self-loops exactly like the exact pool. Leaf payloads live in a
// parallel q_payload_ array in the same BFS order.
//
// Which engine serves is a property of the model, not a setting: compile()
// builds the bin-code pool straight from the fitted trees whenever they fit
// its code ranges, and the exact SoA pool only for models that do not
// (> 255 distinct cuts on one feature — e.g. an exact-trained forest —,
// > 65535 nodes in one tree, > 65535 features, or a deserialized node
// graph that is not a tree). quantized() reports which engine serves and
// quantize_note() why the bin-code pool was skipped. Every hist-trained
// model fits.
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
// is one pass over the nodes plus the cut-table build, and the compiled
// form is immutable.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>

#include "common/thread_pool.hpp"
#include "ml/matrix.hpp"

namespace mphpc::ml {

class DecisionTree;
class GbtRegressor;
class RandomForest;

class CompiledEnsemble {
 public:
  /// Reusable per-caller state for single-row prediction: holds the row's
  /// bin codes so hot serving paths never allocate per request. A
  /// default-constructed scratch is valid for any engine; it grows to the
  /// engine's feature count on first use and is then allocation-free.
  struct RowScratch {
    std::vector<std::uint8_t> codes;
  };

  /// Default-constructed engines are empty (compiled() == false).
  CompiledEnsemble() = default;

  /// Flattens a fitted model. The model can be dropped afterwards for
  /// inference-only serving; keep it for serialization or importances.
  [[nodiscard]] static CompiledEnsemble compile(const GbtRegressor& model);
  [[nodiscard]] static CompiledEnsemble compile(const RandomForest& model);
  [[nodiscard]] static CompiledEnsemble compile(const DecisionTree& model);

  [[nodiscard]] bool compiled() const noexcept { return !roots_.empty(); }
  [[nodiscard]] std::size_t n_features() const noexcept { return n_features_; }
  [[nodiscard]] std::size_t n_outputs() const noexcept { return n_outputs_; }
  [[nodiscard]] std::size_t n_nodes() const noexcept { return n_nodes_; }

  /// True when the model fit the uint8/uint16 code ranges, so the bin-code
  /// pool serves every predict call; false when the exact pool serves.
  [[nodiscard]] bool quantized() const noexcept { return quantized_; }
  /// Human-readable reason the bin-code pool was skipped (empty when
  /// quantized()).
  [[nodiscard]] const std::string& quantize_note() const noexcept {
    return quantize_note_;
  }

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
  enum class Kind : std::uint8_t { kGbt = 0, kForestMean = 1, kSingleTree = 2 };

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

  void predict_tile(const Matrix& x, std::size_t lo, std::size_t hi,
                    Matrix& out) const;
  /// Quantized tile kernel: `codes` is caller scratch of at least
  /// (hi - lo) * n_features_ bytes, overwritten with the tile's bin codes.
  void predict_tile_quantized(const Matrix& x, std::size_t lo, std::size_t hi,
                              Matrix& out, std::uint8_t* codes) const;
  /// The walk half of the quantized tile kernel, generic over the packed
  /// node width (`pool` is q_node32_ or q_node64_); `codes` already binned.
  template <typename Word>
  void walk_tile_quantized(const Word* pool, std::size_t lo, std::size_t hi,
                           Matrix& out, const std::uint8_t* codes) const;

  /// Lays out every tree (flat node vectors, root at 0; `payload(leaf)`
  /// gives a leaf's pool payload) into the bin-code pool when the model
  /// fits its code ranges, into the exact pool otherwise. Every compile()
  /// ends here.
  template <typename Node, typename Payload>
  void build_pools(const std::vector<const std::vector<Node>*>& trees,
                   const Payload& payload);
  /// Fills cuts_/cut_begin_ when the trees fit the bin-code ranges;
  /// otherwise returns the reason they do not (empty when they fit).
  template <typename Node>
  [[nodiscard]] std::string build_cut_tables(
      const std::vector<const std::vector<Node>*>& trees);
  template <typename Node, typename Payload>
  void build_bin_code_pool(const std::vector<const std::vector<Node>*>& trees,
                           const Payload& payload);
  template <typename Node, typename Payload>
  void build_exact_pool(const std::vector<const std::vector<Node>*>& trees,
                        const Payload& payload);

  /// The single-row bin-code kernel: predicts one pre-binned row into
  /// `out` (size n_outputs()), walking kGroup trees at a time.
  template <typename Word>
  void predict_codes_row(const Word* pool, const std::uint8_t* codes,
                         double* out) const noexcept;
  /// Walks trees [t, t + kGroup) in lock-step for one pre-binned row and
  /// stores each tree's leaf as a GLOBAL pool index into q_payload_.
  template <typename Word>
  void walk_group(const Word* pool, std::size_t t, const std::uint8_t* codes,
                  std::array<std::uint32_t, kGroup>& leaf) const noexcept;

  /// Bin code of value `v` on feature `f`: #{cuts of f < v}, so
  /// `code_of(f, x[f]) <= cut_index` decides exactly like `x[f] <=
  /// threshold_`. The search is a branchless binary chop (the advance is a
  /// masked add, not a data-dependent jump): std::lower_bound mispredicts
  /// ~50% per probe on real feature values, which costs as much as the
  /// tree walks it feeds.
  [[nodiscard]] std::uint8_t code_of(std::size_t f, double v) const noexcept {
    const double* start = cuts_.data() + cut_begin_[f];
    const double* base = start;
    std::size_t n = cut_begin_[f + 1] - cut_begin_[f];
    while (n > 1) {
      const std::size_t half = n / 2;
      base += half & (0 - static_cast<std::size_t>(base[half - 1] < v));
      n -= half;
    }
    const std::size_t below = n == 1 && base[0] < v ? 1 : 0;
    return static_cast<std::uint8_t>(static_cast<std::size_t>(base - start) + below);
  }

  /// Bin-codes one row: codes[f] = code_of(f, xr[f]).
  void bin_row(const double* xr, std::uint8_t* codes) const noexcept {
    for (std::size_t f = 0; f < n_features_; ++f) codes[f] = code_of(f, xr[f]);
  }

  /// Walks one tree for one row: exactly `steps` branch-free iterations
  /// (leaves self-loop, so overshooting is a no-op); returns the leaf.
  [[nodiscard]] std::int32_t walk(std::int32_t root, std::int32_t steps,
                                  const double* xr) const noexcept {
    std::int32_t node = root;
    for (std::int32_t s = 0; s < steps; ++s) {
      const auto i = static_cast<std::size_t>(node);
      // Mask-and-blend keeps the walk branch-free; a ternary may be
      // lowered to an unpredictable data-dependent jump.
      const std::int32_t take_left = -static_cast<std::int32_t>(
          xr[static_cast<std::size_t>(feature_[i])] <= threshold_[i]);
      node = (left_[i] & take_left) | (right_[i] & ~take_left);
    }
    return node;
  }

  /// One step of the quantized walk: `w` is a packed node word, `qr` the
  /// row's bin codes. Decodes to `left_child + (code > cut)` — branch-free
  /// (flag materialized by setcc, no data-dependent jump), and a leaf's
  /// cut of 255 makes the predicate false so the self-loop holds.
  [[nodiscard]] static std::uint32_t qstep(std::uint32_t w,
                                           const std::uint8_t* qr) noexcept {
    const std::uint8_t code = qr[w & 0xFFU];
    const std::uint8_t cut = static_cast<std::uint8_t>(w >> 8);
    return (w >> 16) + static_cast<std::uint32_t>(code > cut);
  }
  [[nodiscard]] static std::uint32_t qstep(std::uint64_t w,
                                           const std::uint8_t* qr) noexcept {
    const std::uint8_t code = qr[w & 0xFFFFU];
    const std::uint8_t cut = static_cast<std::uint8_t>(w >> 16);
    return static_cast<std::uint32_t>(w >> 32) +
           static_cast<std::uint32_t>(code > cut);
  }

  /// Quantized walk over one tree's packed nodes for a pre-binned row;
  /// `origin` is the tree's pool offset (node words hold tree-local child
  /// indices so they fit uint16). Returns the leaf's GLOBAL pool index
  /// into q_payload_ (the quantized pool has its own BFS node order).
  template <typename Word>
  [[nodiscard]] static std::uint32_t qwalk(const Word* pool, std::int32_t origin,
                                           std::int32_t steps,
                                           const std::uint8_t* qr) noexcept {
    const Word* qn = pool + static_cast<std::size_t>(origin);
    std::uint32_t local = 0;
    for (std::int32_t s = 0; s < steps; ++s) local = qstep(qn[local], qr);
    return static_cast<std::uint32_t>(origin) + local;
  }

  Kind kind_ = Kind::kGbt;
  // Exact SoA node pool over every tree (built only when the bin-code pool
  // is not). Leaves are self-loops (left_ == right_ == self, feature_ == 0)
  // carrying their payload in threshold_: the scalar leaf weight for GBT,
  // the offset of the leaf's value vector in values_ for forest/tree.
  std::vector<std::int32_t> feature_;
  std::vector<double> threshold_;
  std::vector<std::int32_t> left_;
  std::vector<std::int32_t> right_;
  std::vector<std::int32_t> roots_;  ///< node index of each tree's root
  std::vector<std::int32_t> depth_;  ///< per-tree walk length (max depth)
  // kGbt: trees [output_begin_[k], output_begin_[k+1]) belong to output k,
  // in boosting-round order; base_[k] is the per-output prior.
  std::vector<std::int32_t> output_begin_;
  std::vector<double> base_;
  // kForestMean / kSingleTree: flat leaf payloads, value_width_ doubles
  // per leaf (== n_outputs_).
  std::vector<double> values_;
  std::size_t value_width_ = 0;
  std::size_t n_features_ = 0;
  std::size_t n_outputs_ = 0;
  std::size_t n_nodes_ = 0;
  double n_trees_ = 1.0;  ///< kForestMean: mean divisor (reference divides)

  // Bin-code pool (built whenever the model fits the code ranges). Trees
  // share the roots_ offsets with the exact layout but renumber their
  // nodes in BFS order with sibling children adjacent; each node packs into
  // one word. Models with <= 255 features use q_node32_ — bits [0,8)
  // feature, [8,16) cut index (255 marks a leaf), [16,32) TREE-LOCAL index
  // of the left child (right child = left + 1; a leaf points at itself) —
  // wider models use q_node64_ with the same shape at uint16 field widths
  // (feature [0,16), cut [16,24), child [32,48)). Exactly one of the two is
  // non-empty when quantized_. q_payload_ holds, in the same BFS order, the
  // scalar leaf weight for GBT, the values_ offset for forest/tree, and 0
  // for internal nodes. Per-feature sorted distinct cut values live flat in
  // cuts_ with cut_begin_ offsets (size n_features_ + 1), exactly the
  // FeatureBins layout from hist training.
  bool quantized_ = false;
  std::string quantize_note_;
  std::vector<double> cuts_;
  std::vector<std::uint32_t> cut_begin_;
  std::vector<std::uint32_t> q_node32_;
  std::vector<std::uint64_t> q_node64_;
  std::vector<double> q_payload_;
};

}  // namespace mphpc::ml
