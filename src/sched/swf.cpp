#include "sched/swf.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <fstream>
#include <istream>
#include <stdexcept>
#include <string_view>

#include "common/contract.hpp"
#include "common/rng.hpp"
#include "core/rpv.hpp"
#include "sched/workload_gen.hpp"

namespace mphpc::sched {

namespace {

constexpr std::size_t kSwfFields = 18;

[[noreturn]] void fail_at(const std::string& origin, std::size_t line,
                          const std::string& message) {
  throw std::runtime_error(origin + ":" + std::to_string(line) + ": " + message);
}

[[nodiscard]] bool is_space(char c) noexcept {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

[[nodiscard]] std::string_view trim(std::string_view s) noexcept {
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

/// "; Key: Value" (or a bare comment, stored with an empty value). The
/// archive's directive vocabulary is open-ended, so nothing is rejected.
void parse_directive(std::string_view body,
                     std::vector<std::pair<std::string, std::string>>* out) {
  body = trim(body);
  if (body.empty()) return;
  const std::size_t colon = body.find(':');
  if (colon == std::string_view::npos) {
    out->emplace_back(std::string(body), std::string());
    return;
  }
  out->emplace_back(std::string(trim(body.substr(0, colon))),
                    std::string(trim(body.substr(colon + 1))));
}

}  // namespace

SwfTrace parse_swf(std::istream& in, const std::string& origin) {
  SwfTrace trace;
  std::string line;
  std::size_t lineno = 0;
  std::array<double, kSwfFields> fields{};
  while (std::getline(in, line)) {
    ++lineno;
    const std::string_view text = trim(line);
    if (text.empty()) continue;
    if (text.front() == ';') {
      parse_directive(text.substr(1), &trace.directives);
      continue;
    }

    std::size_t count = 0;
    std::size_t pos = 0;
    while (pos < text.size()) {
      while (pos < text.size() && is_space(text[pos])) ++pos;
      if (pos >= text.size()) break;
      std::size_t end = pos;
      while (end < text.size() && !is_space(text[end])) ++end;
      const std::string_view token = text.substr(pos, end - pos);
      if (count >= kSwfFields) {
        fail_at(origin, lineno,
                "job line has more than " + std::to_string(kSwfFields) +
                    " fields");
      }
      double value = 0.0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec != std::errc() || ptr != token.data() + token.size()) {
        fail_at(origin, lineno,
                "field " + std::to_string(count + 1) + " ('" +
                    std::string(token) + "') is not numeric");
      }
      fields[count++] = value;
      pos = end;
    }
    if (count != kSwfFields) {
      fail_at(origin, lineno,
              "expected " + std::to_string(kSwfFields) +
                  " whitespace-separated fields, got " + std::to_string(count));
    }

    SwfJob job;
    job.job_number = static_cast<long long>(fields[0]);
    job.submit_s = fields[1];
    job.run_s = fields[3];
    job.procs = static_cast<int>(fields[4]);
    job.requested_procs = static_cast<int>(fields[7]);
    job.status = static_cast<int>(fields[10]);
    trace.jobs.push_back(job);
  }
  return trace;
}

SwfTrace read_swf_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open SWF trace: " + path);
  return parse_swf(in, path);
}

std::vector<Job> jobs_from_swf(const SwfTrace& trace, const core::Dataset& dataset,
                               const workload::AppCatalog& apps,
                               const SwfMapOptions& options, SwfMapStats* stats) {
  MPHPC_EXPECTS(dataset.num_rows() > 0);
  MPHPC_EXPECTS(options.procs_per_node >= 1);
  MPHPC_EXPECTS(options.max_nodes >= 1);

  const auto traced = static_cast<std::size_t>(options.traced_system);
  const std::vector<JobTemplate> templates = job_templates(dataset, apps);
  SwfMapStats tally;
  Rng rng(derive_seed(options.seed, "swf-rows"));
  std::vector<Job> jobs;
  jobs.reserve(trace.jobs.size());
  for (const SwfJob& sj : trace.jobs) {
    if (sj.run_s <= 0.0) {  // cancelled / never ran / unknown runtime
      ++tally.skipped_no_runtime;
      continue;
    }
    const int procs = sj.procs > 0 ? sj.procs : sj.requested_procs;
    if (procs <= 0) {
      ++tally.skipped_no_procs;
      continue;
    }
    // Fold trace processors into whole nodes, clamped to the widest job
    // the simulated cluster accepts.
    const int nodes = std::min(
        options.max_nodes,
        (procs + options.procs_per_node - 1) / options.procs_per_node);

    const std::size_t row = rng.below(templates.size());
    const JobTemplate& t = templates[row];
    Job job;
    job.id = static_cast<int>(jobs.size());
    job.row = row;
    job.gpu_capable = t.gpu_capable;
    job.nodes_required = nodes;
    job.submit_s = sj.submit_s > 0.0 ? sj.submit_s : 0.0;
    // Rescale the row's four runtimes so the traced system's runtime is
    // exactly run_s: cross-system ratios — the row's RPV — are preserved,
    // only the absolute scale is taken from the trace.
    const double base = t.runtime[traced];
    MPHPC_ASSERT(base > 0.0);
    const double scale = sj.run_s / base;
    for (std::size_t k = 0; k < arch::kNumSystems; ++k) {
      job.runtime[k] = k == traced ? sj.run_s : t.runtime[k] * scale;
    }
    job.predicted = core::Rpv::relative_to(job.runtime, arch::SystemId::kQuartz);
    jobs.push_back(std::move(job));
    ++tally.mapped;
  }
  if (stats != nullptr) *stats = tally;
  return jobs;
}

}  // namespace mphpc::sched
