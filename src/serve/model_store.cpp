#include "serve/model_store.hpp"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/atomic_file.hpp"
#include "common/contract.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "ml/serialize.hpp"

namespace mphpc::serve {

namespace {

constexpr std::string_view kMagic = "mphpc-serve-model v1 ";

// Parses "<generation> <fingerprint>" (the header after kMagic).
ModelStore::Header parse_header_fields(std::string_view fields,
                                       const std::string& path) {
  const std::size_t space = fields.find(' ');
  if (space == std::string_view::npos) {
    throw ParseError("serve model store header missing fingerprint: " + path);
  }
  ModelStore::Header header;
  try {
    header.generation =
        static_cast<long long>(parse_double(fields.substr(0, space)));
  } catch (const ParseError&) {
    throw ParseError("serve model store header has a bad generation: " + path);
  }
  header.fingerprint = std::string(trim(fields.substr(space + 1)));
  return header;
}

}  // namespace

ModelStore::ModelStore(std::string path) : path_(std::move(path)) {
  MPHPC_EXPECTS(!path_.empty());
}

std::string ModelStore::fingerprint_of(std::string_view body) {
  return format_hex64(fnv1a_64(body));
}

std::optional<ModelStore::StoredModel> ModelStore::load() const {
  if (!std::filesystem::exists(path_)) return std::nullopt;
  const std::string text = ml::load_text(path_);

  const std::size_t eol = text.find('\n');
  if (eol == std::string::npos || !starts_with(text, kMagic)) {
    throw ParseError("serve model store has a bad header: " + path_);
  }
  const Header header = parse_header_fields(
      std::string_view(text).substr(kMagic.size(), eol - kMagic.size()), path_);

  StoredModel stored;
  stored.generation = header.generation;
  stored.fingerprint = header.fingerprint;

  const std::string_view body = std::string_view(text).substr(eol + 1);
  if (fingerprint_of(body) != stored.fingerprint) {
    throw ParseError("serve model store fingerprint mismatch (corrupt body): " +
                     path_);
  }
  stored.predictor = core::CrossArchPredictor::from_text(body);
  return stored;
}

std::optional<ModelStore::Header> ModelStore::peek_header() const {
  const int fd = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return std::nullopt;
    throw std::system_error(errno, std::generic_category(),
                            "serve model store open failed: " + path_);
  }
  // The header is one short line; 4 KiB is orders of magnitude more than
  // "mphpc-serve-model v1 <int64> <16 hex digits>" can occupy.
  char buffer[4096];
  std::size_t filled = 0;
  while (filled < sizeof(buffer)) {
    const ssize_t n = ::read(fd, buffer + filled, sizeof(buffer) - filled);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      throw std::system_error(err, std::generic_category(),
                              "serve model store read failed: " + path_);
    }
    if (n == 0) break;
    filled += static_cast<std::size_t>(n);
    if (std::string_view(buffer, filled).find('\n') != std::string_view::npos) {
      break;
    }
  }
  ::close(fd);
  const std::string_view text(buffer, filled);
  const std::size_t eol = text.find('\n');
  if (eol == std::string_view::npos || !starts_with(text, kMagic)) {
    throw ParseError("serve model store has a bad header: " + path_);
  }
  return parse_header_fields(text.substr(kMagic.size(), eol - kMagic.size()),
                             path_);
}

std::string ModelStore::store(const core::CrossArchPredictor& predictor,
                              long long generation) const {
  MPHPC_EXPECTS(predictor.trained() && generation >= 0);
  const std::string body = predictor.serialize_text();
  std::string fingerprint = fingerprint_of(body);
  const std::string header =
      std::string(kMagic) + std::to_string(generation) + " " + fingerprint + "\n";
  atomic_write_text(path_, {header, body});
  return fingerprint;
}

RefitLease::RefitLease(std::string path, std::string holder, double ttl_s)
    : path_(std::move(path)), holder_(std::move(holder)), ttl_s_(ttl_s) {
  MPHPC_EXPECTS(!path_.empty() && !holder_.empty() && ttl_s_ > 0.0);
}

RefitLease::~RefitLease() { release(); }

RefitLease::RefitLease(RefitLease&& other) noexcept
    : path_(std::move(other.path_)),
      holder_(std::move(other.holder_)),
      ttl_s_(other.ttl_s_),
      held_(other.held_) {
  other.path_.clear();
  other.held_ = false;
}

RefitLease& RefitLease::operator=(RefitLease&& other) noexcept {
  if (this != &other) {
    release();
    path_ = std::move(other.path_);
    holder_ = std::move(other.holder_);
    ttl_s_ = other.ttl_s_;
    held_ = other.held_;
    other.path_.clear();
    other.held_ = false;
  }
  return *this;
}

bool RefitLease::create_exclusive() {
  // O_EXCL is the atomic election: of N racing workers exactly one
  // creates the file; everyone else gets EEXIST.
  const int fd =
      ::open(path_.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  // Best-effort holder identity for observability; an empty lease file
  // still locks correctly.
  const char* data = holder_.data();
  std::size_t left = holder_.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, data, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  ::close(fd);
  held_ = true;
  return true;
}

double RefitLease::age_s() const {
  struct stat st{};
  if (::stat(path_.c_str(), &st) != 0) return -1.0;
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  const double now_s = std::chrono::duration<double>(now).count();
  const double mtime_s = static_cast<double>(st.st_mtim.tv_sec) +
                         static_cast<double>(st.st_mtim.tv_nsec) * 1e-9;
  return now_s - mtime_s;
}

bool RefitLease::try_acquire() {
  if (!enabled() || held_) return true;
  if (create_exclusive()) return true;
  // Someone holds it. A fresh lease means a live refitter — yield. A
  // stale one means its holder died without release(); unlink and
  // re-race the O_EXCL create so concurrent takeovers still elect
  // exactly one winner.
  const double age = age_s();
  if (age >= 0.0 && age <= ttl_s_) return false;
  ::unlink(path_.c_str());
  return create_exclusive();
}

void RefitLease::refresh() noexcept {
  if (!held_) return;
  // utimensat(UTIME_NOW) bumps mtime without rewriting content.
  const struct timespec times[2] = {{0, UTIME_NOW}, {0, UTIME_NOW}};
  (void)::utimensat(AT_FDCWD, path_.c_str(), times, 0);
}

void RefitLease::release() noexcept {
  if (!held_) return;
  (void)::unlink(path_.c_str());
  held_ = false;
}

std::string RefitLease::read_holder() const {
  if (!enabled()) return {};
  const int fd = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return {};
  char buffer[256];
  ssize_t n = 0;
  do {
    n = ::read(fd, buffer, sizeof(buffer) - 1);
  } while (n < 0 && errno == EINTR);
  ::close(fd);
  if (n <= 0) return {};
  return std::string(buffer, static_cast<std::size_t>(n));
}

}  // namespace mphpc::serve
