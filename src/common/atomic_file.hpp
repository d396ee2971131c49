// Crash-safe file writes: write-temp -> fsync -> rename.
//
// Every artifact the pipeline produces (serialized models, dataset CSVs,
// JSON reports, campaign shards) goes through atomic_write_text so a
// crash or SIGKILL mid-write can never leave a torn file at the final
// path — readers either see the complete old contents or the complete
// new contents. The temp file lives in the destination directory (rename
// must not cross filesystems) and carries a per-process unique suffix so
// concurrent writers to *different* paths never collide.
#pragma once

#include <initializer_list>
#include <string>
#include <string_view>

namespace mphpc {

/// Atomically replaces the file at `path` with `content`. Throws
/// std::runtime_error on any I/O failure; on failure the destination is
/// untouched and the temp file is cleaned up best-effort.
void atomic_write_text(const std::string& path, std::string_view content);

/// As above, with the file's content the concatenation of `parts`, written
/// in order without first joining them into one string.
void atomic_write_text(const std::string& path,
                       std::initializer_list<std::string_view> parts);

}  // namespace mphpc
