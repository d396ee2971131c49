#include "ml/serialize.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/atomic_file.hpp"
#include "common/contract.hpp"

namespace mphpc::ml {

void save_text(const std::string& text, const std::string& path) {
  MPHPC_EXPECTS(!path.empty());
  // Atomic replace: a crash mid-save leaves the previous model intact
  // instead of a torn file.
  atomic_write_text(path, text);
}

std::string load_text(const std::string& path) {
  MPHPC_EXPECTS(!path.empty());
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw std::runtime_error("cannot open for reading: " + path);
  // One read into a buffer sized from fstat; the spare byte lets the read
  // that sees end-of-file land without growing the buffer. A file that
  // grows meanwhile (or reports no size) still reads to the end.
  struct stat st{};
  std::string text;
  text.resize(::fstat(fd, &st) == 0 && st.st_size > 0
                  ? static_cast<std::size_t>(st.st_size) + 1
                  : std::size_t{4096});
  std::size_t filled = 0;
  while (true) {
    if (filled == text.size()) text.resize(2 * text.size());
    const ssize_t n = ::read(fd, text.data() + filled, text.size() - filled);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      throw std::runtime_error("cannot read " + path + ": " + std::strerror(err));
    }
    if (n == 0) break;
    filled += static_cast<std::size_t>(n);
  }
  ::close(fd);
  text.resize(filled);
  return text;
}

}  // namespace mphpc::ml
