#include "core/dataset.hpp"

#include <map>

#include "common/contract.hpp"
#include "common/strings.hpp"

namespace mphpc::core {

std::vector<std::string> Dataset::feature_column_names() {
  std::vector<std::string> names;
  names.reserve(FeaturePipeline::kNumFeatures);
  for (const auto name : FeaturePipeline::feature_names()) names.emplace_back(name);
  return names;
}

std::vector<std::string> Dataset::target_column_names() {
  std::vector<std::string> names;
  names.reserve(arch::kNumSystems);
  for (const arch::SystemId id : arch::kAllSystems) {
    names.push_back("rpv_" + std::string(arch::to_string(id)));
  }
  return names;
}

std::vector<std::string> Dataset::time_column_names() {
  std::vector<std::string> names;
  names.reserve(arch::kNumSystems);
  for (const arch::SystemId id : arch::kAllSystems) {
    names.push_back("time_" + std::string(arch::to_string(id)));
  }
  return names;
}

ml::Matrix Dataset::features(std::span<const std::size_t> rows) const {
  return rows.empty() ? features_ : features_.select_rows(rows);
}

ml::Matrix Dataset::targets(std::span<const std::size_t> rows) const {
  return rows.empty() ? targets_ : targets_.select_rows(rows);
}

double Dataset::time_on(std::size_t row, arch::SystemId system) const {
  MPHPC_EXPECTS(row < num_rows());
  return times_(row, static_cast<std::size_t>(system));
}

Rpv Dataset::true_rpv(std::size_t row) const {
  MPHPC_EXPECTS(row < num_rows());
  SystemTimes times{};
  for (std::size_t k = 0; k < arch::kNumSystems; ++k) times[k] = times_(row, k);
  const auto source = arch::parse_system(system_[row]);
  MPHPC_EXPECTS(source.has_value());
  return Rpv::relative_to(times, *source);
}

std::string Dataset::to_csv() const {
  std::string out = "app,input,system,scale,time_s";
  const auto header = [&out](const std::vector<std::string>& names) {
    for (const auto& name : names) out += ',' + name;
  };
  header(feature_column_names());
  header(target_column_names());
  header(time_column_names());
  out += '\n';

  // Labels come from the fixed app, system and scale vocabularies, none of
  // which needs CSV quoting.
  const auto label = [&out](const std::string& text) {
    MPHPC_ASSERT(text.find_first_of(",\"\n\r") == std::string::npos);
    out += text;
  };
  const auto numbers = [&out](std::span<const double> values) {
    for (const double v : values) out += ',' + format_double(v);
  };
  for (std::size_t r = 0; r < num_rows(); ++r) {
    label(app_[r]);
    out += ',' + format_double(static_cast<double>(input_[r])) + ',';
    label(system_[r]);
    out += ',';
    label(scale_[r]);
    out += ',' + format_double(time_s_[r]);
    numbers(features_.row(r));
    numbers(targets_.row(r));
    numbers(times_.row(r));
    out += '\n';
  }
  return out;
}

Dataset build_dataset(std::span<const sim::RunProfile> profiles) {
  MPHPC_EXPECTS(!profiles.empty());

  // Observed times per (app, input) group: [system][scale].
  struct GroupTimes {
    double time[arch::kNumSystems][workload::kNumScaleClasses] = {};
    bool seen[arch::kNumSystems][workload::kNumScaleClasses] = {};
  };
  std::map<std::pair<std::string, int>, GroupTimes> groups;
  for (const auto& p : profiles) {
    auto& g = groups[{p.app, p.input_index}];
    const auto s = static_cast<std::size_t>(p.system);
    const auto c = static_cast<std::size_t>(p.config.scale_class);
    g.time[s][c] = p.time_s;
    g.seen[s][c] = true;
  }
  for (const auto& [key, g] : groups) {
    for (std::size_t s = 0; s < arch::kNumSystems; ++s) {
      for (std::size_t c = 0; c < workload::kNumScaleClasses; ++c) {
        if (!g.seen[s][c]) {
          throw ContractViolation("incomplete profile group for app '" + key.first +
                                  "' input " + std::to_string(key.second));
        }
      }
    }
  }

  // Raw features for every profile, then fit the standardizers over all
  // rows (paper §V-D: normalization statistics come from the full corpus).
  constexpr std::size_t kF = FeaturePipeline::kNumFeatures;
  const std::size_t n = profiles.size();
  Dataset dataset;
  dataset.features_ = ml::Matrix(n, kF);
  for (std::size_t r = 0; r < n; ++r) {
    const auto f = FeaturePipeline::raw_features(profiles[r]);
    std::copy(f.begin(), f.end(), dataset.features_.row(r).begin());
  }
  dataset.pipeline_.fit(dataset.features_.flat(), n);

  dataset.targets_ = ml::Matrix(n, arch::kNumSystems);
  dataset.times_ = ml::Matrix(n, arch::kNumSystems);
  for (std::size_t r = 0; r < n; ++r) {
    const auto& p = profiles[r];
    const auto& g = groups[{p.app, p.input_index}];
    const auto scale_idx = static_cast<std::size_t>(p.config.scale_class);

    SystemTimes times{};
    for (std::size_t s = 0; s < arch::kNumSystems; ++s) times[s] = g.time[s][scale_idx];
    const Rpv rpv = Rpv::relative_to(times, p.system);

    const auto row = dataset.features_.row(r);
    FeaturePipeline::FeatureVector f{};
    std::copy(row.begin(), row.end(), f.begin());
    dataset.pipeline_.transform(f);
    std::copy(f.begin(), f.end(), row.begin());

    dataset.app_.push_back(p.app);
    dataset.input_.push_back(p.input_index);
    dataset.system_.emplace_back(arch::to_string(p.system));
    dataset.scale_.emplace_back(workload::to_string(p.config.scale_class));
    dataset.time_s_.push_back(p.time_s);
    for (std::size_t k = 0; k < arch::kNumSystems; ++k) {
      dataset.targets_(r, k) = rpv[k];
      dataset.times_(r, k) = times[k];
    }
  }
  return dataset;
}

}  // namespace mphpc::core
