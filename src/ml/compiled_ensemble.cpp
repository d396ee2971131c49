#include "ml/compiled_ensemble.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "common/contract.hpp"
#include "ml/decision_tree.hpp"
#include "ml/gbt.hpp"
#include "ml/random_forest.hpp"

namespace mphpc::ml {

namespace {

/// Output width of a fitted CART tree: the value size of any leaf.
std::size_t tree_output_width(const DecisionTree& tree) {
  for (const TreeNode& node : tree.nodes()) {
    if (node.is_leaf()) return node.value.size();
  }
  MPHPC_UNREACHABLE("fitted tree has no leaf");
}

}  // namespace

CompiledEnsemble CompiledEnsemble::compile(const GbtRegressor& model) {
  MPHPC_EXPECTS(model.fitted());
  CompiledEnsemble ce;
  ce.kind_ = Kind::kGbt;
  ce.n_features_ = model.n_features();
  ce.n_outputs_ = model.n_outputs();
  std::vector<const std::vector<GbtNode>*> trees;
  ce.output_begin_ = {0};
  for (std::size_t k = 0; k < model.n_outputs(); ++k) {
    ce.base_.push_back(model.base_score(k));
    for (const GbtTree& tree : model.ensemble(k)) trees.push_back(&tree.nodes);
    ce.output_begin_.push_back(static_cast<std::int32_t>(trees.size()));
  }
  ce.build_pools(trees, [](const GbtNode& leaf) { return leaf.weight; });
  MPHPC_ENSURES(ce.compiled());
  return ce;
}

CompiledEnsemble CompiledEnsemble::compile(const RandomForest& model) {
  MPHPC_EXPECTS(model.fitted());
  CompiledEnsemble ce;
  ce.kind_ = Kind::kForest;
  ce.n_outputs_ = tree_output_width(model.trees().front());
  ce.value_width_ = ce.n_outputs_;
  ce.n_trees_ = static_cast<double>(model.trees().size());
  // Every fitted tree saw the same X, so any tree's feature count works.
  ce.n_features_ = model.trees().front().n_features();
  std::vector<const std::vector<TreeNode>*> trees;
  for (const DecisionTree& tree : model.trees()) {
    MPHPC_EXPECTS(tree.fitted());
    trees.push_back(&tree.nodes());
  }
  // A leaf's payload is the offset of its value vector in values_ (exact
  // in a double far beyond any pool).
  ce.build_pools(trees, [&values = ce.values_](const TreeNode& leaf) {
    const auto offset = static_cast<double>(values.size());
    values.insert(values.end(), leaf.value.begin(), leaf.value.end());
    return offset;
  });
  MPHPC_ENSURES(ce.compiled());
  return ce;
}

template <typename Node, typename Payload>
void CompiledEnsemble::build_pools(const std::vector<const std::vector<Node>*>& trees,
                                   const Payload& payload) {
  n_nodes_ = 0;
  for (const std::vector<Node>* nodes : trees) n_nodes_ += nodes->size();
  MPHPC_EXPECTS(n_nodes_ <
                static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()));
  // Encode tree by tree, renumbering nodes in BFS order so an internal
  // node's children land adjacent (left at child_base, right at
  // child_base + 1 — the walk step is then one add off a flag), and pack
  // each node into a single word: feature | cut << bits | child << 2*bits.
  // Leaves get the all-ones cut, an index no internal node can carry, so
  // `code > cut` is always false and the leaf self-loops through its own
  // child_base. BFS visits nodes in output order, so each node's word is
  // appended as it is dequeued; a node's BFS level is its depth, and the
  // deepest leaf sets the tree's walk length.
  const bool narrow = build_cut_tables(trees);
  const unsigned bits = narrow ? 8 : 16;
  const std::uint64_t leaf_cut = (std::uint64_t{1} << bits) - 1;
  if (narrow) {
    q_node32_.reserve(n_nodes_);
  } else {
    q_node64_.reserve(n_nodes_);
  }
  q_payload_.reserve(n_nodes_);
  roots_.reserve(trees.size());
  depth_.reserve(trees.size());
  std::vector<std::uint32_t> order;  // order[new_local] = old_local
  std::vector<std::int32_t> level;   // level[new_local] = depth
  for (const std::vector<Node>* nodes : trees) {
    roots_.push_back(static_cast<std::int32_t>(q_payload_.size()));
    std::int32_t depth = 0;
    order.assign(1, 0);
    level.assign(1, 0);
    for (std::size_t head = 0; head < order.size(); ++head) {
      const Node& node = (*nodes)[order[head]];
      std::uint64_t feat = 0;
      std::uint64_t cut = leaf_cut;
      std::uint64_t child = head;  // a leaf loops to itself
      double leaf_payload = 0.0;
      if (node.is_leaf()) {
        leaf_payload = payload(node);
        depth = std::max(depth, level[head]);
      } else {
        // A threshold's cut index is its own code: #{cuts < threshold}.
        const auto f = static_cast<std::size_t>(node.feature);
        feat = f;
        cut = code_of(f, node.threshold);
        child = order.size();
        order.push_back(static_cast<std::uint32_t>(node.left));
        order.push_back(static_cast<std::uint32_t>(node.right));
        level.insert(level.end(), 2, level[head] + 1);
      }
      const std::uint64_t word = feat | (cut << bits) | (child << (2 * bits));
      if (narrow) {
        q_node32_.push_back(static_cast<std::uint32_t>(word));
      } else {
        q_node64_.push_back(word);
      }
      q_payload_.push_back(leaf_payload);
    }
    // Every node is visited once: the trees are true trees.
    MPHPC_ASSERT(order.size() == nodes->size());
    depth_.push_back(depth);
  }
}

template <typename Node>
bool CompiledEnsemble::build_cut_tables(
    const std::vector<const std::vector<Node>*>& trees) {
  // A 64-bit word's feature field holds indices up to 65535.
  if (n_features_ > std::size_t{1} << 16) {
    throw std::length_error("compiled ensemble: more than 65536 features");
  }
  bool narrow = n_features_ <= 255;
  std::vector<std::vector<double>> cuts(n_features_);
  for (const std::vector<Node>* nodes : trees) {
    narrow = narrow && nodes->size() <= std::numeric_limits<std::uint16_t>::max();
    for (const Node& node : *nodes) {
      if (!node.is_leaf()) {
        cuts[static_cast<std::size_t>(node.feature)].push_back(node.threshold);
      }
    }
  }
  // Per-feature sorted distinct cut tables from the fitted thresholds. A
  // row code #{cuts < v} can be the cut count itself, so a word's code
  // and cut fields hold a feature with up to 255 (32-bit) or 65535
  // (64-bit) cuts, with the all-ones cut left free to mark leaves.
  cut_begin_.assign(1, 0);
  for (std::vector<double>& fc : cuts) {
    std::sort(fc.begin(), fc.end());
    fc.erase(std::unique(fc.begin(), fc.end()), fc.end());
    if (fc.size() > std::numeric_limits<std::uint16_t>::max()) {
      throw std::length_error(
          "compiled ensemble: a feature has more than 65535 distinct thresholds");
    }
    narrow = narrow && fc.size() <= 255;
    cuts_.insert(cuts_.end(), fc.begin(), fc.end());
    cut_begin_.push_back(static_cast<std::uint32_t>(cuts_.size()));
  }
  return narrow;
}

template <typename Word>
void CompiledEnsemble::walk_group(const Word* pool, std::size_t t,
                                  const Code<Word>* codes,
                                  std::array<std::uint32_t, kGroup>& leaf) const noexcept {
  // The group walks as long as its deepest tree; a shallower tree's walk
  // parks on its self-looping leaf for the remaining steps.
  std::int32_t steps = 0;
  for (std::size_t l = 0; l < kGroup; ++l) steps = std::max(steps, depth_[t + l]);
  std::array<std::uint32_t, kGroup> local{};
  for (std::int32_t s = 0; s < steps; ++s) {
    for (std::size_t l = 0; l < kGroup; ++l) {
      local[l] = qstep(pool[static_cast<std::size_t>(roots_[t + l]) + local[l]], codes);
    }
  }
  for (std::size_t l = 0; l < kGroup; ++l) {
    leaf[l] = static_cast<std::uint32_t>(roots_[t + l]) + local[l];
  }
}

template <typename Word>
void CompiledEnsemble::predict_codes_row(const Word* pool, const Code<Word>* codes,
                                         double* out) const noexcept {
  std::array<std::uint32_t, kGroup> leaf;
  if (kind_ == Kind::kGbt) {
    // Full groups in lock-step, then the output's last < kGroup trees one
    // at a time; either way leaves add in boosting order, the reference
    // accumulation order.
    for (std::size_t k = 0; k < n_outputs_; ++k) {
      double acc = base_[k];
      const auto t_end = static_cast<std::size_t>(output_begin_[k + 1]);
      auto t = static_cast<std::size_t>(output_begin_[k]);
      for (; t + kGroup <= t_end; t += kGroup) {
        walk_group(pool, t, codes, leaf);
        for (std::size_t l = 0; l < kGroup; ++l) acc += q_payload_[leaf[l]];
      }
      for (; t < t_end; ++t) {
        acc += q_payload_[qwalk(pool, roots_[t], depth_[t], codes)];
      }
      out[k] = acc;
    }
    return;
  }
  std::fill(out, out + n_outputs_, 0.0);
  const auto add_leaf = [&](std::uint32_t node) {
    const double* v = values_.data() + static_cast<std::size_t>(q_payload_[node]);
    for (std::size_t k = 0; k < value_width_; ++k) out[k] += v[k];
  };
  std::size_t t = 0;
  for (; t + kGroup <= roots_.size(); t += kGroup) {
    walk_group(pool, t, codes, leaf);
    for (std::size_t l = 0; l < kGroup; ++l) add_leaf(leaf[l]);
  }
  for (; t < roots_.size(); ++t) add_leaf(qwalk(pool, roots_[t], depth_[t], codes));
  for (std::size_t k = 0; k < n_outputs_; ++k) out[k] /= n_trees_;
}

template <typename Word>
void CompiledEnsemble::predict_rows(const Word* pool, const Matrix& x,
                                    std::size_t begin, std::size_t end,
                                    Matrix& out) const {
  // One code buffer per chunk, reused across its tiles: the only
  // allocation the batch path makes. The +4 pad keeps the vector walk's
  // dword gather of the last code byte inside the buffer (it masks the
  // extra bytes off; they are never used).
  std::vector<Code<Word>> codes(kTile * n_features_ + 4);
  for (std::size_t lo = begin; lo < end; lo += kTile) {
    const std::size_t hi = std::min(end, lo + kTile);
    bin_tile(x, lo, hi, codes.data());
    walk_tile_quantized(pool, lo, hi, out, codes.data());
  }
}

template <typename C>
void CompiledEnsemble::bin_tile(const Matrix& x, std::size_t lo, std::size_t hi,
                                C* codes) const {
  // Bin the tile once: every later tree walk reads the codes, so the
  // per-row hot state is n_features_ codes (a 512-row tile of 21 features
  // is ~10 KB of uint8 codes — the whole tile stays L1-resident across the
  // ensemble). Eight rows chop in lock-step per feature: they share one
  // cut table and one range width, so every probe is eight independent
  // masked adds off a hot table — no mispredicted compares (bin_row's
  // scalar chop, serial per feature, would cost as much as the tree walks
  // it feeds).
  std::size_t r = lo;
  std::array<const double*, kLanes> xr;
  std::array<const double*, kLanes> base;
  std::array<double, kLanes> v;
  for (; r + kLanes <= hi; r += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) xr[l] = x.row(r + l).data();
    C* crow = codes + (r - lo) * n_features_;
    for (std::size_t f = 0; f < n_features_; ++f) {
      const double* start = cuts_.data() + cut_begin_[f];
      std::size_t n = cut_begin_[f + 1] - cut_begin_[f];
      for (std::size_t l = 0; l < kLanes; ++l) {
        base[l] = start;
        v[l] = xr[l][f];
      }
      while (n > 1) {
        const std::size_t half = n / 2;
        for (std::size_t l = 0; l < kLanes; ++l) {
          base[l] += half & (0 - static_cast<std::size_t>(base[l][half - 1] < v[l]));
        }
        n -= half;
      }
      for (std::size_t l = 0; l < kLanes; ++l) {
        const std::size_t below = n == 1 && base[l][0] < v[l] ? 1 : 0;
        crow[l * n_features_ + f] =
            static_cast<C>(static_cast<std::size_t>(base[l] - start) + below);
      }
    }
  }
  for (; r < hi; ++r) bin_row(x.row(r).data(), codes + (r - lo) * n_features_);
}

#if defined(__AVX512F__)
// GCC's avx512 headers spell "undefined vector" as `__m512i __Y = __Y;`,
// which -Wmaybe-uninitialized flags once the shift intrinsics inline into
// the walk below. Silence that known-bogus warning for this region only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
namespace {

/// Rows per vector walk: four 16-lane gather groups in flight. A single
/// group is latency-bound — the serial gather -> compare -> gather chain
/// of one step runs ~25 cycles — so three more independent groups overlap
/// it and keep the gather ports busy instead of idle.
constexpr std::size_t kQuadRows = 64;

/// Walks one tree for four 16-lane groups of pre-binned rows. `qn` is
/// the tree's packed 32-bit node pool, `codes` the tile's row-major
/// uint8 code matrix (padded so the dword gathers of the last code stay
/// inside the buffer), `rowoff[g]` lane byte-offsets of each row's code
/// block. One step per lane is two gathers (node word, code byte) plus
/// shift/mask/compare — the same arithmetic as the scalar qstep, so
/// leaves (and therefore results) are identical. Leaf indices land in
/// `loc`, tree-local.
inline void qwalk_quad(const std::uint32_t* qn, std::int32_t steps,
                       const std::uint8_t* codes, const __m512i* rowoff,
                       __m512i* loc) noexcept {
  const __m512i k_ff = _mm512_set1_epi32(0xFF);
  const __m512i k_one = _mm512_set1_epi32(1);
  for (int g = 0; g < 4; ++g) loc[g] = _mm512_setzero_si512();
  for (std::int32_t s = 0; s < steps; ++s) {
    for (int g = 0; g < 4; ++g) {
      const __m512i w = _mm512_i32gather_epi32(loc[g], qn, 4);
      const __m512i cidx =
          _mm512_add_epi32(_mm512_and_si512(w, k_ff), rowoff[g]);
      const __m512i code =
          _mm512_and_si512(_mm512_i32gather_epi32(cidx, codes, 1), k_ff);
      const __m512i cut = _mm512_and_si512(_mm512_srli_epi32(w, 8), k_ff);
      const __m512i child = _mm512_srli_epi32(w, 16);
      const __mmask16 gt = _mm512_cmp_epu32_mask(code, cut, _MM_CMPINT_NLE);
      loc[g] = _mm512_mask_add_epi32(child, gt, child, k_one);
    }
  }
}

/// Lane byte-offsets of rows [first_row, first_row + 64) into the tile's
/// code matrix, one vector per 16-row group.
inline void quad_row_offsets(std::size_t first_row, std::size_t n_features,
                             __m512i* rowoff) noexcept {
  const __m512i lane_off = _mm512_mullo_epi32(
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
      _mm512_set1_epi32(static_cast<int>(n_features)));
  for (int g = 0; g < 4; ++g) {
    rowoff[g] = _mm512_add_epi32(
        lane_off, _mm512_set1_epi32(static_cast<int>(
                      (first_row + 16 * static_cast<std::size_t>(g)) *
                      n_features)));
  }
}

}  // namespace
#endif  // __AVX512F__

// Lane groups of kLanes rows walk each tree in lock-step: a walk step is
// two loads (the packed node word + the row's code) and a handful of
// integer ops per lane, and the eight independent chains keep both load
// ports busy. When the build targets AVX-512 and the pool is 32-bit, full 64-row
// quads take the gather-based vector walk instead (identical integer
// arithmetic and FP accumulation order, so results stay bit-identical);
// the scalar lanes then only mop up the tile remainder. Rows left over
// after the last full lane group take the single-row grouped-tree kernel.
template <typename Word>
void CompiledEnsemble::walk_tile_quantized(const Word* pool, std::size_t lo,
                                           std::size_t hi, Matrix& out,
                                           const Code<Word>* codes) const {
  std::size_t scalar_lo = lo;  // rows below it were served by the vector path
#if defined(__AVX512F__)
  if constexpr (sizeof(Word) == 4) {
    const std::size_t vec_rows = (hi - lo) / kQuadRows * kQuadRows;
    if (vec_rows > 0) {
      scalar_lo = lo + vec_rows;
      if (kind_ == Kind::kGbt) {
        std::array<double, kQuadRows> accbuf;
        for (std::size_t k = 0; k < n_outputs_; ++k) {
          const auto t_begin = static_cast<std::size_t>(output_begin_[k]);
          const auto t_end = static_cast<std::size_t>(output_begin_[k + 1]);
          for (std::size_t q = 0; q < vec_rows; q += kQuadRows) {
            __m512i rowoff[4];
            quad_row_offsets(q, n_features_, rowoff);
            __m512d acc[8];
            for (__m512d& a : acc) a = _mm512_set1_pd(base_[k]);
            for (std::size_t t = t_begin; t < t_end; ++t) {
              const auto origin = static_cast<std::size_t>(roots_[t]);
              __m512i leaf[4];
              qwalk_quad(pool + origin, depth_[t], codes, rowoff, leaf);
              const double* qp = q_payload_.data() + origin;
              for (int g = 0; g < 4; ++g) {
                acc[2 * g] = _mm512_add_pd(
                    acc[2 * g],
                    _mm512_i32gather_pd(_mm512_castsi512_si256(leaf[g]), qp,
                                        8));
                acc[2 * g + 1] = _mm512_add_pd(
                    acc[2 * g + 1],
                    _mm512_i32gather_pd(_mm512_extracti64x4_epi64(leaf[g], 1),
                                        qp, 8));
              }
            }
            for (int i = 0; i < 8; ++i) {
              _mm512_storeu_pd(accbuf.data() + 8 * i, acc[i]);
            }
            for (std::size_t l = 0; l < kQuadRows; ++l) {
              out(lo + q + l, k) = accbuf[l];
            }
          }
        }
      } else {
        std::array<std::uint32_t, kQuadRows> leafbuf;
        for (std::size_t q = 0; q < vec_rows; q += kQuadRows) {
          __m512i rowoff[4];
          quad_row_offsets(q, n_features_, rowoff);
          for (std::size_t t = 0; t < roots_.size(); ++t) {
            const auto origin = static_cast<std::size_t>(roots_[t]);
            __m512i leaf[4];
            qwalk_quad(pool + origin, depth_[t], codes, rowoff, leaf);
            for (int g = 0; g < 4; ++g) {
              _mm512_storeu_si512(leafbuf.data() + 16 * g, leaf[g]);
            }
            const double* qp = q_payload_.data() + origin;
            for (std::size_t l = 0; l < kQuadRows; ++l) {
              const double* v =
                  values_.data() + static_cast<std::size_t>(qp[leafbuf[l]]);
              double* dst = out.row(lo + q + l).data();
              for (std::size_t c = 0; c < value_width_; ++c) dst[c] += v[c];
            }
          }
        }
      }
    }
  }
#endif  // __AVX512F__
  const std::size_t lanes_hi = scalar_lo + (hi - scalar_lo) / kLanes * kLanes;
  if (kind_ == Kind::kGbt) {
    for (std::size_t k = 0; k < n_outputs_; ++k) {
      const auto t_begin = static_cast<std::size_t>(output_begin_[k]);
      const auto t_end = static_cast<std::size_t>(output_begin_[k + 1]);
      std::array<const Code<Word>*, kLanes> qr;
      std::array<std::uint32_t, kLanes> local;
      std::array<double, kLanes> acc;
      for (std::size_t r = scalar_lo; r < lanes_hi; r += kLanes) {
        for (std::size_t l = 0; l < kLanes; ++l) {
          qr[l] = codes + (r + l - lo) * n_features_;
        }
        acc.fill(base_[k]);
        for (std::size_t t = t_begin; t < t_end; ++t) {
          const Word* qn = pool + static_cast<std::size_t>(roots_[t]);
          const double* qp =
              q_payload_.data() + static_cast<std::size_t>(roots_[t]);
          const std::int32_t steps = depth_[t];
          local.fill(0);
          for (std::int32_t s = 0; s < steps; ++s) {
            for (std::size_t l = 0; l < kLanes; ++l) {
              local[l] = qstep(qn[local[l]], qr[l]);
            }
          }
          for (std::size_t l = 0; l < kLanes; ++l) acc[l] += qp[local[l]];
        }
        for (std::size_t l = 0; l < kLanes; ++l) out(r + l, k) = acc[l];
      }
    }
  } else {
    for (std::size_t t = 0; t < roots_.size(); ++t) {
      const Word* qn = pool + static_cast<std::size_t>(roots_[t]);
      const double* qp = q_payload_.data() + static_cast<std::size_t>(roots_[t]);
      const std::int32_t steps = depth_[t];
      std::array<const Code<Word>*, kLanes> qr;
      std::array<std::uint32_t, kLanes> local;
      for (std::size_t r = scalar_lo; r < lanes_hi; r += kLanes) {
        for (std::size_t l = 0; l < kLanes; ++l) {
          qr[l] = codes + (r + l - lo) * n_features_;
        }
        local.fill(0);
        for (std::int32_t s = 0; s < steps; ++s) {
          for (std::size_t l = 0; l < kLanes; ++l) {
            local[l] = qstep(qn[local[l]], qr[l]);
          }
        }
        for (std::size_t l = 0; l < kLanes; ++l) {
          const double* v = values_.data() + static_cast<std::size_t>(qp[local[l]]);
          double* dst = out.row(r + l).data();
          for (std::size_t c = 0; c < value_width_; ++c) dst[c] += v[c];
        }
      }
    }
    for (std::size_t r = lo; r < lanes_hi; ++r) {
      for (double& v : out.row(r)) v /= n_trees_;
    }
  }
  for (std::size_t r = lanes_hi; r < hi; ++r) {
    predict_codes_row(pool, codes + (r - lo) * n_features_, out.row(r).data());
  }
}

#if defined(__AVX512F__)
#pragma GCC diagnostic pop
#endif

Matrix CompiledEnsemble::predict(const Matrix& x, ThreadPool* pool) const {
  MPHPC_EXPECTS(compiled());
  MPHPC_EXPECTS(x.cols() == n_features_);
  Matrix out(x.rows(), n_outputs_);
  const auto run_rows = [&](std::size_t row_begin, std::size_t row_end) {
    if (!q_node32_.empty()) {
      predict_rows(q_node32_.data(), x, row_begin, row_end, out);
    } else {
      predict_rows(q_node64_.data(), x, row_begin, row_end, out);
    }
  };
  if (pool != nullptr && x.rows() >= kLanes) {
    // Chunks are contiguous row ranges; every (row, output) accumulator is
    // owned by exactly one chunk, so the partition cannot change results.
    // A batch under one lane group stays on this thread: a caller waiting
    // on the pool runs any queued task, a concurrent refit's included.
    pool->parallel_chunks(0, x.rows(),
                          [&](std::size_t, std::size_t b, std::size_t e) {
                            run_rows(b, e);
                          });
  } else {
    run_rows(0, x.rows());
  }
  return out;
}

// lint:allow-next-line contract-coverage -- delegate; the scratch overload owns the contracts
void CompiledEnsemble::predict_row(std::span<const double> x,
                                   std::span<double> out) const {
  // One scratch per thread: steady-state single-row serving allocates
  // nothing (the bench asserts this).
  thread_local RowScratch scratch;
  predict_row(x, out, scratch);
}

void CompiledEnsemble::predict_row(std::span<const double> x,
                                   std::span<double> out,
                                   RowScratch& scratch) const {
  MPHPC_EXPECTS(compiled());
  MPHPC_EXPECTS(out.size() == n_outputs_);
  MPHPC_EXPECTS(x.size() == n_features_);
  const auto run = [&](const auto* pool, auto& codes) {
    if (codes.size() < n_features_) codes.resize(n_features_);
    bin_row(x.data(), codes.data());
    predict_codes_row(pool, codes.data(), out.data());
  };
  if (!q_node32_.empty()) {
    run(q_node32_.data(), scratch.codes);
  } else {
    run(q_node64_.data(), scratch.wide_codes);
  }
}

}  // namespace mphpc::ml
