// CSV serialization for Table — the MP-HPC dataset's on-disk exchange
// format (the paper ships its dataset as a pandas-compatible CSV).
//
// Dialect: comma separator, first line is the header, RFC-4180 quoting for
// cells containing commas/quotes/newlines. Column types are inferred on
// read from the first data row (numeric if it parses as a double), unless
// an explicit text-column list is given.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "data/table.hpp"

namespace mphpc::data {

/// Writes `table` as CSV to `out`.
void write_csv(const Table& table, std::ostream& out);

/// Writes `table` to the file at `path`; throws std::runtime_error on I/O
/// failure.
void write_csv_file(const Table& table, const std::string& path);

/// Reads a CSV; columns named in `text_columns` are read as text, all
/// others must parse as doubles. Throws mphpc::ParseError on malformed
/// input, including a `nan` or `inf` cell in a numeric column.
[[nodiscard]] Table read_csv(std::istream& in,
                             const std::vector<std::string>& text_columns = {});

/// Reads the file at `path`; throws std::runtime_error if unreadable.
[[nodiscard]] Table read_csv_file(const std::string& path,
                                  const std::vector<std::string>& text_columns = {});

}  // namespace mphpc::data
