#include "ml/gbt.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include <optional>

#include "common/contract.hpp"
#include "common/distributions.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "ml/binning.hpp"
#include "ml/hist_common.hpp"

namespace mphpc::ml {

double GbtTree::predict(std::span<const double> x) const {
  MPHPC_EXPECTS(!nodes.empty());
  std::size_t i = 0;
  while (!nodes[i].is_leaf()) {
    const GbtNode& n = nodes[i];
    i = static_cast<std::size_t>(
        x[static_cast<std::size_t>(n.feature)] <= n.threshold ? n.left : n.right);
  }
  return nodes[i].weight;
}

namespace {

/// One (G, H) histogram cell as a two-lane vector: a pair add is two
/// independent IEEE additions, bit-identical to the scalar ones.
using Pair = double __attribute__((vector_size(16)));

inline Pair load_pair(const double* cell) noexcept {
  Pair v;
  std::memcpy(&v, cell, sizeof v);
  return v;
}

inline void store_pair(double* cell, Pair v) noexcept {
  std::memcpy(cell, &v, sizeof v);
}

/// Sweeps the bin boundaries of one feature's (G, H) histogram `slice`
/// and records the best split for a node with totals (sum_g, sum_h). The
/// cumulative left sums accumulate in ascending bin order, so re-summing
/// bins [0, best.bin] later reproduces the winning child sums bit-for-bit.
///
/// Bin occupancy is data-dependent, so per-bin branches mispredict: the
/// loop computes every boundary's gain and selects without branching,
/// under the rules a branchy scan would apply. A boundary counts only when
/// neither child is under min_child_weight; the sweep stops at the first
/// boundary whose left side is heavy enough but whose right side is not
/// (hl only grows, hr only shrinks); the first strictly greater gain wins.
void best_bin_split(std::size_t f, const FeatureBins& fb, const double* slice,
                    double sum_g, double sum_h, const GbtOptions& opt,
                    hist::Split& best) {
  const int nb = fb.n_bins();
  const double parent_score = sum_g * sum_g / (sum_h + opt.lambda);
  const Pair lambda = {opt.lambda, opt.lambda};
  double best_gain = best.gain;
  int best_bin = -1;
  double gl = 0.0;
  double hl = 0.0;
  const double* cell = slice;
  for (int b = 0; b + 1 < nb; ++b, cell += 2) {
    gl += cell[0];
    hl += cell[1];
    const double hr = sum_h - hl;
    const bool light_left = hl < opt.min_child_weight;
    const bool light_right = hr < opt.min_child_weight;
    if (!light_left && light_right) break;
    // {GL^2/(HL+lambda), GR^2/(HR+lambda)} in one two-lane divide.
    const Pair grad = {gl, sum_g - gl};
    const Pair score = grad * grad / (Pair{hl, hr} + lambda);
    const double gain = 0.5 * (score[0] + score[1] - parent_score) - opt.gamma;
    const bool better = !light_left && gain > best_gain;
    best_gain = better ? gain : best_gain;
    best_bin = better ? b : best_bin;
  }
  if (best_bin >= 0) {
    best = {best_gain, fb.thresholds[static_cast<std::size_t>(best_bin)],
            static_cast<int>(f), best_bin};
  }
}

/// The boosted tree's statistic for hist::TreeBuilder: interleaved (G, H)
/// per bin. Only the features sampled for the tree are swept, and a node
/// needs hessian mass for two children to be swept at all.
struct GbtStats {
  using Node = GbtNode;
  using Row = Pair;

  const GbtOptions& opt;
  std::span<const double> g;
  std::span<const double> h;
  std::span<const std::uint8_t> in_cols;  ///< per feature: sampled for this tree
  std::span<double> gain_sum;
  std::span<double> split_count;

  static constexpr std::size_t width() noexcept { return 2; }
  [[nodiscard]] int max_depth() const noexcept { return opt.max_depth; }
  static constexpr double min_split_gain() noexcept { return 0.0; }
  [[nodiscard]] Row row(std::uint32_t r) const noexcept { return Row{g[r], h[r]}; }
  static void add(double* cell, Row gh) noexcept {
    store_pair(cell, load_pair(cell) + gh);
  }
  [[nodiscard]] bool splittable(const double* gh) const noexcept {
    return !(gh[1] < 2.0 * opt.min_child_weight);
  }
  static void begin_level(const std::vector<std::uint8_t>& /*open*/) noexcept {}
  void sweep(std::size_t f, std::size_t /*dense*/, const FeatureBins& fb,
             const double* slice, const double* gh, hist::Split& best) const {
    if (in_cols[f]) best_bin_split(f, fb, slice, gh[0], gh[1], opt, best);
  }
  void on_split(const hist::Split& w) const {
    gain_sum[static_cast<std::size_t>(w.feature)] += w.gain;
    split_count[static_cast<std::size_t>(w.feature)] += 1.0;
  }
  /// w* = -G/(H+lambda), shrunk by the learning rate.
  void set_leaf(GbtNode& node, const double* gh) const noexcept {
    node.weight = -gh[0] / (gh[1] + opt.lambda) * opt.learning_rate;
  }
};

/// Adds the built tree's leaf weight to every row's prediction, exactly
/// once, as the tree walk on raw values would: an in-sample row takes the
/// weight of the leaf whose partition range holds it; an out-of-sample row
/// walks the tree on its bin codes, where `code <= bin` holds exactly when
/// `x <= thresholds[bin]` (compared here as histogram bins, both offset by
/// the feature's table offset) for every finite x, the only kind
/// BinnedMatrix::build accepts. That walk is branch-free and always takes
/// `levels` steps: a leaf's test always holds, and its left link is itself.
void add_leaf_weights(hist::TreeBuilder<GbtStats>& builder,
                      const hist::BinTable& table, std::span<double> pred,
                      std::span<const std::uint8_t> in_sample) {
  const std::vector<GbtNode>& nodes = builder.nodes();
  struct Step {
    std::uint32_t feature = 0;
    std::uint32_t bin = std::numeric_limits<std::uint32_t>::max();
    std::array<std::uint32_t, 2> child{};  ///< {row bin <= bin, row bin > bin}
  };
  std::vector<Step> steps(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const GbtNode& n = nodes[i];
    if (n.is_leaf()) {
      const double w = n.weight;
      for (const std::uint32_t r : builder.items(i)) pred[r] += w;
      steps[i].child = {static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(i)};
      continue;
    }
    const auto f = static_cast<std::size_t>(n.feature);
    steps[i] = {static_cast<std::uint32_t>(f),
                static_cast<std::uint32_t>(table.offset(f)) +
                    static_cast<std::uint32_t>(builder.bin(i)),
                {static_cast<std::uint32_t>(n.left), static_cast<std::uint32_t>(n.right)}};
  }
  for (std::size_t r = 0; r < pred.size(); ++r) {
    if (in_sample[r]) continue;
    const std::uint32_t* bins = table.row(r);
    std::uint32_t i = 0;
    for (int s = 0; s < builder.levels(); ++s) {
      const Step& step = steps[i];
      i = step.child[static_cast<std::size_t>(bins[step.feature] > step.bin)];
    }
    pred[r] += nodes[i].weight;
  }
}

/// Builds one boosted tree on the shared histogram builder (see the header
/// comment in gbt.hpp) and adds its leaf weights to `pred`.
GbtTree build_tree_hist(const hist::BinTable& table, ThreadPool* pool,
                        GbtStats stats, std::span<const std::uint8_t> in_sample,
                        std::span<double> pred) {
  std::vector<std::uint32_t> rows;
  rows.reserve(table.rows());
  for (std::size_t r = 0; r < table.rows(); ++r) {
    if (in_sample[r]) rows.push_back(static_cast<std::uint32_t>(r));
  }
  hist::TreeBuilder<GbtStats> builder(table, stats, std::move(rows), pool);
  builder.build();
  add_leaf_weights(builder, table, pred, in_sample);
  // Take the nodes out instead of copying them, trimmed to size: the
  // ensemble keeps every tree of the fit.
  GbtTree tree{std::move(builder.nodes())};
  tree.nodes.shrink_to_fit();
  return tree;
}

/// Per-tree subsampling mask: marks `sampled` of `total` entries drawn
/// without replacement, or everything when subsampling is off (in which
/// case the RNG is deliberately not advanced — matching the resume
/// burn-in, which skips the draw under the same condition).
void fill_sample_mask(Rng& rng, std::vector<std::uint8_t>& mask,
                      std::size_t total, std::size_t sampled) {
  if (sampled < total) {
    std::fill(mask.begin(), mask.end(), std::uint8_t{0});
    for (const std::size_t i : sample_without_replacement(rng, total, sampled)) {
      mask[i] = 1;
    }
  } else {
    std::fill(mask.begin(), mask.end(), std::uint8_t{1});
  }
}

/// Gradient/hessian of the objective at residual r = pred - y.
inline void gradients(GbtObjective objective, double delta, double pred, double y,
                      double& g, double& h) noexcept {
  const double r = pred - y;
  if (objective == GbtObjective::kSquaredError) {
    g = r;
    h = 1.0;
    return;
  }
  // Pseudo-Huber: L = delta^2 (sqrt(1+(r/delta)^2) - 1); smooth |r|.
  const double s = 1.0 + (r / delta) * (r / delta);
  const double sq = std::sqrt(s);
  g = r / sq;
  h = 1.0 / (s * sq);
}

[[noreturn]] void throw_node_error(std::size_t node, const std::string& what) {
  throw ParseError("gbt: node " + std::to_string(node) + what);
}

/// Structural validation of an untrusted (deserialized) tree. GbtTree::
/// predict indexes nodes unchecked and follows child links in a loop, so a
/// corrupt model could otherwise read out of bounds or cycle forever:
/// every internal node must reference a real feature and strictly-forward
/// in-range children (forward links make the node graph acyclic), and
/// leaves must not carry children. The graph must also be a tree — every
/// node but the root has exactly one parent — which the compiled
/// ensemble's BFS layout relies on (a shared child would be laid out twice
/// and an orphan never).
void validate_tree_topology(const GbtTree& tree, std::size_t n_feat) {
  const auto n_nodes = static_cast<long long>(tree.nodes.size());
  std::vector<std::uint8_t> parents(tree.nodes.size(), 0);
  for (std::size_t node = 0; node < tree.nodes.size(); ++node) {
    const GbtNode& gn = tree.nodes[node];
    if (gn.is_leaf()) {
      if (gn.left != -1 || gn.right != -1) {
        throw_node_error(node, ": leaf has child links");
      }
      continue;
    }
    if (static_cast<std::size_t>(gn.feature) >= n_feat) {
      throw_node_error(node, ": feature " + std::to_string(gn.feature) + " out of range");
    }
    const auto self = static_cast<long long>(node);
    if (gn.left <= self || gn.left >= n_nodes || gn.right <= self ||
        gn.right >= n_nodes) {
      throw_node_error(node, ": child links must point forward and in range");
    }
    for (const int child : {gn.left, gn.right}) {
      auto& count = parents[static_cast<std::size_t>(child)];
      if (count++ != 0) {
        throw_node_error(static_cast<std::size_t>(child), " has more than one parent");
      }
    }
  }
  for (std::size_t node = 1; node < parents.size(); ++node) {
    if (parents[node] == 0) throw_node_error(node, " has no parent");
  }
}

/// The '\n'-separated lines of a model text as views into it, read front
/// to back. Lines are numbered as split(text, '\n') numbers them: a text
/// holds one more line than it has newlines.
class LineCursor {
 public:
  explicit LineCursor(std::string_view text)
      : text_(text),
        count_(static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) + 1),
        end_(std::min(text.find('\n'), text.size())) {}

  /// Skips blank lines; returns the next line, trimmed and not consumed,
  /// or an empty view when no line is left.
  std::string_view peek() {
    while (index_ < count_) {
      const std::string_view line = trim(text_.substr(begin_, end_ - begin_));
      if (!line.empty()) return line;
      advance();
    }
    return {};
  }

  /// Consumes and returns the next non-blank line, trimmed.
  std::string_view next() {
    const std::string_view line = peek();
    if (index_ >= count_) throw ParseError("gbt: truncated model");
    advance();
    return line;
  }

  /// Lines not consumed yet, blank ones included.
  [[nodiscard]] std::size_t remaining() const noexcept { return count_ - index_; }

 private:
  void advance() noexcept {
    ++index_;
    begin_ = end_ + 1;
    if (index_ < count_) end_ = std::min(text_.find('\n', begin_), text_.size());
  }

  std::string_view text_;
  std::size_t count_;
  std::size_t index_ = 0;
  std::size_t begin_ = 0;
  std::size_t end_;
};

/// Splits `line` on single spaces the way split(line, ' ') does, keeping
/// empty fields, into at most N views; returns the field count, or N + 1
/// when the line has more than N fields.
template <std::size_t N>
std::size_t split_fields(std::string_view line, std::array<std::string_view, N>& fields) {
  std::size_t n = 0;
  std::size_t begin = 0;
  while (n < N) {
    const std::size_t space = line.find(' ', begin);
    if (space == std::string_view::npos) {
      fields[n++] = line.substr(begin);
      return n;
    }
    fields[n++] = line.substr(begin, space - begin);
    begin = space + 1;
  }
  return N + 1;
}

/// Writes `v` as std::to_string / format_double spell it, then `sep`;
/// returns the end of what it wrote.
template <typename T>
char* put(char* out, T v, char sep) {
  out = std::to_chars(out, out + 32, v).ptr;
  *out++ = sep;
  return out;
}

}  // namespace

void GbtRegressor::fit(const Matrix& x, const Matrix& y, ThreadPool* pool) {
  // fit() always starts fresh — drop any previous (or partial) state so
  // fit_resumable does not mistake it for a checkpoint to resume.
  ensembles_.clear();
  base_score_.clear();
  gain_sum_.clear();
  split_count_.clear();
  gain_by_output_.clear();
  count_by_output_.clear();
  fit_resumable(x, y, 0, nullptr, pool);
}

void GbtRegressor::fit_resumable(const Matrix& x, const Matrix& y,
                                 int checkpoint_every,
                                 const ProgressFn& on_checkpoint, ThreadPool* pool) {
  fit_impl(x, y, checkpoint_every, on_checkpoint, pool, /*warm=*/false);
}

void GbtRegressor::warm_start_fit(const Matrix& x, const Matrix& y,
                                  int extra_rounds, ThreadPool* pool) {
  MPHPC_EXPECTS(fitted());
  MPHPC_EXPECTS(extra_rounds >= 1);
  MPHPC_EXPECTS(x.cols() == n_features_ && y.cols() == ensembles_.size());
  options_.n_rounds = rounds_completed() + extra_rounds;
  fit_impl(x, y, /*checkpoint_every=*/0, nullptr, pool, /*warm=*/true);
}

void GbtRegressor::fit_impl(const Matrix& x, const Matrix& y,
                            int checkpoint_every,
                            const ProgressFn& on_checkpoint, ThreadPool* pool,
                            bool warm) {
  MPHPC_EXPECTS(x.rows() == y.rows() && x.rows() > 0 && x.cols() > 0 && y.cols() > 0);
  MPHPC_EXPECTS(options_.n_rounds >= 1 && options_.max_depth >= 1);
  MPHPC_EXPECTS(options_.subsample > 0.0 && options_.subsample <= 1.0);
  MPHPC_EXPECTS(options_.colsample > 0.0 && options_.colsample <= 1.0);
  MPHPC_EXPECTS(options_.max_bins == 0 ||
                (options_.max_bins >= 2 && options_.max_bins <= BinnedMatrix::kMaxBins));
  MPHPC_EXPECTS(checkpoint_every >= 0);

  const std::size_t n = x.rows();
  const std::size_t n_feat = x.cols();
  const std::size_t n_out = y.cols();

  const int start_round = begin_fit(n_feat, n_out);

  const hist::BinTable table(
      BinnedMatrix::build(x, resolve_max_bins(options_.max_bins, n), pool));
  // The pool is used at one level only: a multi-output fit fans out over
  // outputs, so its trees run serially.
  ThreadPool* tree_pool = n_out > 1 ? nullptr : pool;

  const auto n_cols_sampled = static_cast<std::size_t>(std::max(
      1.0, std::round(options_.colsample * static_cast<double>(n_feat))));
  const auto n_rows_sampled = static_cast<std::size_t>(
      std::max(1.0, std::round(options_.subsample * static_cast<double>(n))));

  // Per-output training state, carried across checkpoint blocks so block
  // boundaries never change the arithmetic.
  struct OutputState {
    std::vector<double> pred;
    std::vector<double> g;
    std::vector<double> h;
    std::vector<std::uint8_t> in_sample;
    std::vector<std::uint8_t> in_cols;
    Rng rng{0};
  };
  std::vector<OutputState> states(n_out);

  const auto init_output = [&](std::size_t k) {
    OutputState& st = states[k];
    if (!warm) {
      // Base score: mean target of this output (recomputed identically on
      // resume — the data is the same fit's data). A warm start keeps the
      // fitted base score instead: the stored trees were built against it,
      // and the new window's mean would shift their implicit target.
      double mean = 0.0;
      for (std::size_t r = 0; r < n; ++r) mean += y(r, k);
      mean /= static_cast<double>(n);
      base_score_[k] = mean;
    }

    st.pred.assign(n, base_score_[k]);
    st.g.resize(n);
    st.h.resize(n);
    st.in_sample.resize(n);
    st.in_cols.resize(n_feat);
    ensembles_[k].reserve(static_cast<std::size_t>(options_.n_rounds));

    if (warm) {
      // Fresh stream per (output, generation): the prior rounds' draws
      // were made against a different window, so replaying them would be
      // meaningless — keying on start_round keeps every refit generation
      // deterministic and distinct.
      st.rng = Rng(derive_seed(options_.seed, "warm",
                               static_cast<std::uint64_t>(k),
                               static_cast<std::uint64_t>(start_round)));
    } else {
      st.rng = Rng(derive_seed(options_.seed, "output", static_cast<std::uint64_t>(k)));
      // Resume burn-in: replay the completed rounds' sampling draws so
      // the RNG stream continues exactly where the interrupted fit
      // stopped.
      for (int round = 0; round < start_round; ++round) {
        if (n_rows_sampled < n) {
          (void)sample_without_replacement(st.rng, n, n_rows_sampled);
        }
        if (n_cols_sampled < n_feat) {
          (void)sample_without_replacement(st.rng, n_feat, n_cols_sampled);
        }
      }
    }
    // Rebuild pred by re-adding the stored trees in round order (resume:
    // the same additions the original fit performed; warm: the ensemble's
    // predictions on the new window).
    for (int round = 0; round < start_round; ++round) {
      const GbtTree& tree = ensembles_[k][static_cast<std::size_t>(round)];
      for (std::size_t r = 0; r < n; ++r) st.pred[r] += tree.predict(x.row(r));
    }
  };

  const auto fit_rounds = [&](std::size_t k, int from, int to) {
    OutputState& st = states[k];
    auto& ensemble = ensembles_[k];
    for (int round = from; round < to; ++round) {
      for (std::size_t r = 0; r < n; ++r) {
        gradients(options_.objective, options_.huber_delta, st.pred[r], y(r, k),
                  st.g[r], st.h[r]);
      }

      fill_sample_mask(st.rng, st.in_sample, n, n_rows_sampled);
      fill_sample_mask(st.rng, st.in_cols, n_feat, n_cols_sampled);

      const GbtStats stats{options_, st.g, st.h, st.in_cols, gain_by_output_[k],
                           count_by_output_[k]};
      ensemble.push_back(build_tree_hist(table, tree_pool, stats, st.in_sample, st.pred));
    }
  };

  const auto over_outputs = [&](const std::function<void(std::size_t)>& fn) {
    if (pool != nullptr && n_out > 1) {
      pool->parallel_for(0, n_out, fn);
    } else {
      for (std::size_t k = 0; k < n_out; ++k) fn(k);
    }
  };

  over_outputs(init_output);

  const int block = checkpoint_every > 0 ? checkpoint_every : options_.n_rounds;
  for (int from = start_round; from < options_.n_rounds; from += block) {
    const int to = std::min(options_.n_rounds, from + block);
    over_outputs([&](std::size_t k) { fit_rounds(k, from, to); });
    if (on_checkpoint && to < options_.n_rounds) {
      // Keep the merged importances consistent before the caller
      // serializes the partial model.
      merge_importances();
      on_checkpoint(to);
    }
  }

  merge_importances();
}

int GbtRegressor::begin_fit(std::size_t n_feat, std::size_t n_out) {
  if (fitted()) {
    // Resume: the model holds the first rounds_completed() trees of the
    // very fit being continued. The shapes must match the data, and the
    // per-output importance accumulators must have survived the
    // round-trip (they are required to keep FP accumulation order).
    MPHPC_EXPECTS(n_features_ == n_feat && ensembles_.size() == n_out);
    const int start_round = rounds_completed();
    for (const auto& ensemble : ensembles_) {
      MPHPC_EXPECTS(ensemble.size() == static_cast<std::size_t>(start_round));
    }
    MPHPC_EXPECTS(start_round <= options_.n_rounds);
    MPHPC_EXPECTS(gain_by_output_.size() == n_out &&
                  count_by_output_.size() == n_out);
    return start_round;
  }
  n_features_ = n_feat;
  ensembles_.assign(n_out, {});
  base_score_.assign(n_out, 0.0);
  gain_by_output_.assign(n_out, std::vector<double>(n_feat, 0.0));
  count_by_output_.assign(n_out, std::vector<double>(n_feat, 0.0));
  return 0;
}

void GbtRegressor::merge_importances() {
  gain_sum_.assign(n_features_, 0.0);
  split_count_.assign(n_features_, 0.0);
  for (std::size_t k = 0; k < gain_by_output_.size(); ++k) {
    for (std::size_t f = 0; f < n_features_; ++f) {
      gain_sum_[f] += gain_by_output_[k][f];
      split_count_[f] += count_by_output_[k][f];
    }
  }
}

Matrix GbtRegressor::predict(const Matrix& x) const {
  MPHPC_EXPECTS(fitted());
  MPHPC_EXPECTS(x.cols() == n_features_);
  const std::size_t n_out = ensembles_.size();
  Matrix out(x.rows(), n_out);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto xr = x.row(r);
    for (std::size_t k = 0; k < n_out; ++k) {
      double v = base_score_[k];
      for (const GbtTree& tree : ensembles_[k]) v += tree.predict(xr);
      out(r, k) = v;
    }
  }
  return out;
}

std::optional<std::vector<double>> GbtRegressor::feature_importances() const {
  if (!fitted()) return std::nullopt;
  std::vector<double> imp(n_features_, 0.0);
  for (std::size_t f = 0; f < n_features_; ++f) {
    if (split_count_[f] > 0.0) imp[f] = gain_sum_[f] / split_count_[f];
  }
  const double total = std::accumulate(imp.begin(), imp.end(), 0.0);
  if (total > 0.0) {
    for (double& v : imp) v /= total;
  }
  return imp;
}

std::string GbtRegressor::serialize() const {
  MPHPC_EXPECTS(fitted());
  std::string out = "gbt " + std::to_string(ensembles_.size()) + " " +
                    std::to_string(n_features_) + "\n";
  out += "method hist " + std::to_string(options_.max_bins) + "\n";
  out += "base";
  for (const double b : base_score_) {
    out += ' ';
    out += format_double(b);
  }
  out += "\n";
  out += "importance_gain";
  for (const double v : gain_sum_) {
    out += ' ';
    out += format_double(v);
  }
  out += "\n";
  out += "importance_count";
  for (const double v : split_count_) {
    out += ' ';
    out += format_double(v);
  }
  out += "\n";
  // Per-output accumulators (checkpoint resume needs them to continue
  // the exact FP accumulation order). Older models without them still
  // load; they just cannot seed a resumed fit.
  if (gain_by_output_.size() == ensembles_.size()) {
    for (std::size_t k = 0; k < ensembles_.size(); ++k) {
      out += "importance_gain_out ";
      out += std::to_string(k);
      for (const double v : gain_by_output_[k]) {
        out += ' ';
        out += format_double(v);
      }
      out += "\n";
      out += "importance_count_out ";
      out += std::to_string(k);
      for (const double v : count_by_output_[k]) {
        out += ' ';
        out += format_double(v);
      }
      out += "\n";
    }
  }
  // Node lines run ~32 bytes; reserving 40 a node keeps the writer to one
  // buffer for any model this repo trains.
  std::size_t n_nodes = 0;
  for (const auto& ensemble : ensembles_) {
    for (const GbtTree& tree : ensemble) n_nodes += tree.nodes.size() + 1;
  }
  out.reserve(out.size() + 40 * n_nodes);
  char line[160];
  for (std::size_t k = 0; k < ensembles_.size(); ++k) {
    for (const GbtTree& tree : ensembles_[k]) {
      std::memcpy(line, "tree ", 5);
      char* p = put(line + 5, k, ' ');
      p = put(p, tree.nodes.size(), '\n');
      out.append(line, p);
      for (const GbtNode& node : tree.nodes) {
        p = put(line, node.feature, ' ');
        p = put(p, node.threshold, ' ');
        p = put(p, node.left, ' ');
        p = put(p, node.right, ' ');
        p = put(p, node.weight, '\n');
        out.append(line, p);
      }
    }
  }
  return out;
}

GbtRegressor GbtRegressor::deserialize(std::string_view text) {
  LineCursor lines(text);
  const auto header = split(lines.next(), ' ');
  if (header.size() != 3 || header[0] != "gbt") throw ParseError("gbt: bad header");
  const long long n_out_raw = parse_int(header[1]);
  const long long n_feat_raw = parse_int(header[2]);
  if (n_out_raw < 1 || n_feat_raw < 1) {
    throw ParseError("gbt: header output/feature counts must be positive");
  }
  const auto n_out = static_cast<std::size_t>(n_out_raw);
  const auto n_feat = static_cast<std::size_t>(n_feat_raw);

  GbtRegressor model;
  model.n_features_ = n_feat;

  // Optional method line (older serialized models omit it).
  auto base_or_method = split(lines.next(), ' ');
  if (!base_or_method.empty() && base_or_method[0] == "method") {
    if (base_or_method.size() != 3) throw ParseError("gbt: bad method line");
    if (base_or_method[1] != "hist") {
      throw ParseError("gbt: unknown tree method '" + base_or_method[1] + "'");
    }
    const long long bins = parse_int(base_or_method[2]);
    // 0 is the auto sentinel (resolve_max_bins scales with the fit's rows).
    if (bins != 0 && (bins < 2 || bins > BinnedMatrix::kMaxBins)) {
      throw ParseError("gbt: max_bins out of range");
    }
    model.options_.max_bins = static_cast<int>(bins);
    base_or_method = split(lines.next(), ' ');
  }
  const auto& base = base_or_method;
  if (base.size() != n_out + 1 || base[0] != "base") throw ParseError("gbt: bad base");
  for (std::size_t k = 0; k < n_out; ++k) {
    model.base_score_.push_back(parse_double(base[k + 1]));
  }
  const auto gains = split(lines.next(), ' ');
  if (gains.size() != n_feat + 1 || gains[0] != "importance_gain") {
    throw ParseError("gbt: bad importance_gain");
  }
  const auto counts = split(lines.next(), ' ');
  if (counts.size() != n_feat + 1 || counts[0] != "importance_count") {
    throw ParseError("gbt: bad importance_count");
  }
  for (std::size_t f = 0; f < n_feat; ++f) {
    model.gain_sum_.push_back(parse_double(gains[f + 1]));
    model.split_count_.push_back(parse_double(counts[f + 1]));
  }

  // Optional per-output accumulator lines (models serialized before the
  // checkpoint format omit them).
  if (lines.peek().starts_with("importance_gain_out")) {
    model.gain_by_output_.assign(n_out, {});
    model.count_by_output_.assign(n_out, {});
    for (std::size_t k = 0; k < n_out; ++k) {
      const auto gout = split(lines.next(), ' ');
      if (gout.size() != n_feat + 2 || gout[0] != "importance_gain_out" ||
          parse_int(gout[1]) != static_cast<long long>(k)) {
        throw ParseError("gbt: bad importance_gain_out");
      }
      const auto cout_line = split(lines.next(), ' ');
      if (cout_line.size() != n_feat + 2 || cout_line[0] != "importance_count_out" ||
          parse_int(cout_line[1]) != static_cast<long long>(k)) {
        throw ParseError("gbt: bad importance_count_out");
      }
      for (std::size_t f = 0; f < n_feat; ++f) {
        model.gain_by_output_[k].push_back(parse_double(gout[f + 2]));
        model.count_by_output_[k].push_back(parse_double(cout_line[f + 2]));
      }
    }
  }

  model.ensembles_.assign(n_out, {});
  std::array<std::string_view, 5> fields;
  while (!lines.peek().empty()) {
    if (split_fields(lines.next(), fields) != 3 || fields[0] != "tree") {
      throw ParseError("gbt: bad tree header");
    }
    const long long output_raw = parse_int(fields[1]);
    const long long n_nodes_raw = parse_int(fields[2]);
    if (output_raw < 0 || static_cast<std::size_t>(output_raw) >= n_out) {
      throw ParseError("gbt: tree output out of range");
    }
    // Every node takes one line, so a sane node count cannot exceed the
    // remaining input (guards reserve() against absurd corrupt headers).
    if (n_nodes_raw < 1 || static_cast<std::size_t>(n_nodes_raw) > lines.remaining()) {
      throw ParseError("gbt: bad tree node count " + std::to_string(n_nodes_raw));
    }
    const auto output = static_cast<std::size_t>(output_raw);
    const auto n_nodes = static_cast<std::size_t>(n_nodes_raw);
    GbtTree tree;
    tree.nodes.reserve(n_nodes);
    for (std::size_t node = 0; node < n_nodes; ++node) {
      if (split_fields(lines.next(), fields) != 5) throw ParseError("gbt: bad node");
      GbtNode gn;
      gn.feature = static_cast<int>(parse_int(fields[0]));
      gn.threshold = parse_double(fields[1]);
      gn.left = static_cast<int>(parse_int(fields[2]));
      gn.right = static_cast<int>(parse_int(fields[3]));
      gn.weight = parse_double(fields[4]);
      tree.nodes.push_back(gn);
    }
    validate_tree_topology(tree, n_feat);
    model.ensembles_[output].push_back(std::move(tree));
  }
  for (const auto& ensemble : model.ensembles_) {
    if (ensemble.empty()) throw ParseError("gbt: missing ensemble for an output");
  }
  // Round-trip invariant: a deserialized model is immediately usable and
  // re-serializes to an equivalent model (predict needs these to hold).
  MPHPC_ENSURES(model.fitted());
  MPHPC_ENSURES(model.base_score_.size() == model.ensembles_.size());
  MPHPC_ENSURES(model.gain_sum_.size() == model.n_features_ &&
                model.split_count_.size() == model.n_features_);
  return model;
}

}  // namespace mphpc::ml
