#include "data/csv.hpp"

#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/atomic_file.hpp"
#include "common/contract.hpp"
#include "common/strings.hpp"

namespace mphpc::data {

namespace {

bool needs_quoting(std::string_view cell) noexcept {
  return cell.find_first_of(",\"\n\r") != std::string_view::npos;
}

void write_cell(std::ostream& out, std::string_view cell) {
  if (!needs_quoting(cell)) {
    out << cell;
    return;
  }
  out << '"';
  for (const char c : cell) {
    if (c == '"') out << '"';
    out << c;
  }
  out << '"';
}

/// Splits one CSV record honoring quotes. `line` must be a full record
/// (we do not support embedded newlines on read; the writer never emits
/// them for this dataset). Per RFC 4180 a quote only has meaning at the
/// start of a cell; a stray `"` inside an unquoted cell (`ab"cd`) is kept
/// as a literal character rather than silently opening a quoted section.
std::vector<std::string> parse_record(std::string_view line) {
  std::vector<std::string> cells;
  std::string cell;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cell += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cell += c;
      }
    } else if (c == '"' && cell.empty()) {
      in_quotes = true;
    } else if (c == ',') {
      cells.push_back(std::move(cell));
      cell.clear();
    } else if (c != '\r') {
      cell += c;
    }
  }
  if (in_quotes) throw ParseError("unterminated quote in CSV record");
  cells.push_back(std::move(cell));
  return cells;
}

bool parses_as_double(std::string_view s) noexcept {
  try {
    (void)parse_double(s);
    return true;
  } catch (const ParseError&) {
    return false;
  }
}

}  // namespace

void write_csv(const Table& table, std::ostream& out) {
  const auto names = table.column_names();
  for (std::size_t c = 0; c < names.size(); ++c) {
    if (c > 0) out << ',';
    write_cell(out, names[c]);
  }
  out << '\n';

  // Cache column pointers and types once.
  struct Col {
    bool numeric;
    const std::vector<double>* nums = nullptr;
    const std::vector<std::string>* texts = nullptr;
  };
  std::vector<Col> cols;
  cols.reserve(names.size());
  for (const auto& name : names) {
    Col col{table.column_type(name) == ColumnType::kNumeric};
    if (col.numeric) {
      col.nums = &table.numeric(name);
    } else {
      col.texts = &table.text(name);
    }
    cols.push_back(col);
  }

  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    for (std::size_t c = 0; c < cols.size(); ++c) {
      if (c > 0) out << ',';
      if (cols[c].numeric) {
        out << format_double((*cols[c].nums)[r]);
      } else {
        write_cell(out, (*cols[c].texts)[r]);
      }
    }
    out << '\n';
  }
}

void write_csv_file(const Table& table, const std::string& path) {
  // Render in memory, then atomically replace the destination so an
  // interrupted dataset dump never leaves a truncated CSV behind.
  std::ostringstream out;
  write_csv(table, out);
  atomic_write_text(path, out.str());
}

Table read_csv(std::istream& in, const std::vector<std::string>& text_columns) {
  std::string line;
  if (!std::getline(in, line)) throw ParseError("empty CSV input");
  const std::vector<std::string> header = parse_record(line);

  // Gather all records first so column types can be inferred from every
  // row, not just the first: a text column whose first cell happens to
  // look numeric (a job id like "123") must still load as text.
  std::vector<std::vector<std::string>> records;
  std::size_t line_no = 1;  // the header was line 1
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::vector<std::string> cells;
    try {
      cells = parse_record(line);
    } catch (const ParseError& e) {
      throw ParseError(std::string(e.what()) + " (CSV line " +
                       std::to_string(line_no) + ")");
    }
    if (cells.size() != header.size()) {
      throw ParseError("CSV line " + std::to_string(line_no) + " has " +
                       std::to_string(cells.size()) + " cells, expected " +
                       std::to_string(header.size()));
    }
    records.push_back(std::move(cells));
  }

  const auto is_text = [&](std::size_t c) {
    for (const auto& name : text_columns) {
      if (name == header[c]) return true;
    }
    if (records.empty()) return false;
    for (const auto& rec : records) {
      if (!parses_as_double(rec[c])) return true;
    }
    return false;
  };

  Table table;
  for (std::size_t c = 0; c < header.size(); ++c) {
    if (is_text(c)) {
      std::vector<std::string> values;
      values.reserve(records.size());
      for (const auto& rec : records) values.push_back(rec[c]);
      table.add_text_column(header[c], std::move(values));
    } else {
      std::vector<double> values;
      values.reserve(records.size());
      for (std::size_t r = 0; r < records.size(); ++r) {
        const auto where = [&] {
          return " (column '" + header[c] + "', data row " + std::to_string(r + 1) + ")";
        };
        double v = 0.0;
        try {
          v = parse_double(records[r][c]);
        } catch (const ParseError& e) {
          // Unreachable while inference scans every row; kept so a future
          // forced-numeric path still reports where the bad cell is.
          throw ParseError(std::string(e.what()) + where());
        }
        // "nan" and "inf" parse as doubles but are no measurement; a fit
        // would reject them later, so report the cell where it enters.
        if (!std::isfinite(v)) {
          throw ParseError("non-finite value '" + records[r][c] + "'" + where());
        }
        values.push_back(v);
      }
      table.add_numeric_column(header[c], std::move(values));
    }
  }
  // Table/CSV consistency: one column per header cell, rectangular rows.
  MPHPC_ENSURES(table.num_columns() == header.size());
  MPHPC_ENSURES(table.num_rows() == records.size());
  return table;
}

Table read_csv_file(const std::string& path,
                    const std::vector<std::string>& text_columns) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  return read_csv(in, text_columns);
}

}  // namespace mphpc::data
