#include "datasets/csv.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>
#include <type_traits>

namespace pta {

namespace {

void AppendCell(std::string_view s, std::string* out) {
  if (s.find_first_of(",\"\n") == std::string_view::npos) {
    out->append(s);
    return;
  }
  out->push_back('"');
  for (char ch : s) {
    if (ch == '"') out->push_back('"');
    out->push_back(ch);
  }
  out->push_back('"');
}

// Integers print as %lld; doubles as %.17g, which the standard defines
// to_chars(general, 17) to be, so every double round-trips.
template <typename... Format>
void AppendNumber(std::string* out, auto v, Format... format) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v, format...);
  out->append(buf, r.ptr);
}

// A single pass over CSV text, one cell at a time. A record ends at a
// newline outside quotes; a '\r' before it (or before the end) is dropped.
// Quoted cells may hold commas, newlines and "" escapes; a cell views the
// text, or a scratch buffer once quoting made its bytes non-contiguous.
class CsvScanner {
 public:
  explicit CsvScanner(std::string_view text) : text_(text) {}

  /// Skips blank lines; false once the text is exhausted.
  bool SkipBlankLines() {
    for (; pos_ < text_.size(); ++pos_) {
      if (text_[pos_] == '\n') {
        ++line_;
      } else if (text_[pos_] != '\r' ||
                 (pos_ + 1 < text_.size() && text_[pos_ + 1] != '\n')) {
        return true;
      }
    }
    return false;
  }

  /// 1-based line of the next unread character.
  size_t line() const { return line_; }

  /// Scans the next cell into *cell (valid until the next call) and sets
  /// *last when it ends its record.
  Status NextCell(std::string_view* cell, bool* last) {
    const size_t n = text_.size();
    size_t begin = pos_;  // the unquoted run being scanned
    size_t i = pos_;
    bool quoted = false;  // scratch_ holds the cell's bytes before `begin`
    scratch_.clear();
    while (true) {
      while (i < n && text_[i] != ',' && text_[i] != '\n' && text_[i] != '"') {
        ++i;
      }
      if (i == n || text_[i] != '"') break;
      if (scratch_.size() + (i - begin) != 0) {
        return Status::InvalidArgument("unexpected quote inside cell");
      }
      for (++i;;) {
        const size_t q = text_.find('"', i);
        if (q == std::string_view::npos) {
          return Status::InvalidArgument("unterminated quoted cell");
        }
        line_ += std::count(text_.begin() + i, text_.begin() + q, '\n');
        scratch_.append(text_.data() + i, q - i);
        i = q + 1;
        if (i == n || text_[i] != '"') break;
        scratch_.push_back('"');
        ++i;
      }
      quoted = true;
      begin = i;
    }
    *last = i == n || text_[i] == '\n';
    size_t end = i;
    if (*last && end > begin && text_[end - 1] == '\r') --end;
    if (quoted) {
      scratch_.append(text_.data() + begin, end - begin);
      *cell = scratch_;
    } else {
      *cell = text_.substr(begin, end - begin);
    }
    if (i < n && text_[i] == '\n') ++line_;
    pos_ = std::min(i + 1, n);
    return Status::Ok();
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
  size_t line_ = 1;
  std::string scratch_;
};

// Numbers go through std::from_chars; what it rejects falls back to
// strtoll/strtod, which also accept leading blanks, a '+' sign and hex
// floats. An integer beyond int64 is an error, not a clamped value.
template <typename T>
Result<T> ParseNumber(std::string_view cell) {
  T v{};
  const auto r = std::from_chars(cell.data(), cell.data() + cell.size(), v);
  if (r.ec == std::errc() && r.ptr == cell.data() + cell.size()) return v;
  constexpr bool kInt = std::is_integral_v<T>;
  const std::string s(cell);
  char* end = nullptr;
  errno = 0;
  if constexpr (kInt) v = std::strtoll(s.c_str(), &end, 10);
  else v = std::strtod(s.c_str(), &end);
  const char* bad = kInt ? "bad int64 cell: " : "bad double cell: ";
  if (*end != '\0') return Status::InvalidArgument(bad + s);
  if (kInt && errno == ERANGE) {
    return Status::InvalidArgument("int64 cell out of range: " + s);
  }
  return v;
}

// Parses one cell straight into its column; an empty cell is null.
Status ParseCellInto(std::string_view cell, Column* column) {
  if (cell.empty()) {
    column->AppendNull();
    return Status::Ok();
  }
  switch (column->type()) {
    case ValueType::kInt64: {
      auto v = ParseNumber<int64_t>(cell);
      if (!v.ok()) return v.status();
      column->AppendInt64(*v);
      return Status::Ok();
    }
    case ValueType::kDouble: {
      auto v = ParseNumber<double>(cell);
      if (!v.ok()) return v.status();
      column->AppendDouble(*v);
      return Status::Ok();
    }
    case ValueType::kString:
      column->AppendString(std::string(cell));
      return Status::Ok();
    case ValueType::kNull:
      return Status::InvalidArgument("cannot parse into null-typed column");
  }
  return Status::InvalidArgument("unknown value type");
}

}  // namespace

std::string RelationToCsv(const TemporalRelation& rel) {
  std::string out;
  const Schema& schema = rel.schema();
  out.reserve(rel.size() * (schema.num_attributes() + 2) * 12);
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    AppendCell(schema.attribute(i).name, &out);
    out += ",";
  }
  out += "tb,te\n";
  for (size_t i = 0; i < rel.size(); ++i) {
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      const Column& column = rel.column(a);
      if (!column.is_null(i)) {
        switch (column.type()) {
          case ValueType::kInt64:
            AppendNumber(&out, column.ints()[i]);
            break;
          case ValueType::kDouble:
            AppendNumber(&out, column.doubles()[i], std::chars_format::general,
                         17);
            break;
          case ValueType::kString:
            AppendCell(column.strings()[i], &out);
            break;
          case ValueType::kNull:
            break;
        }
      }
      out += ',';
    }
    AppendNumber(&out, rel.tb()[i]);
    out += ',';
    AppendNumber(&out, rel.te()[i]);
    out += '\n';
  }
  return out;
}

Result<TemporalRelation> RelationFromCsv(const std::string& text,
                                         const Schema& schema) {
  if (text.empty()) return Status::InvalidArgument("empty CSV input");
  CsvScanner scan(text);
  std::vector<std::string> header;
  std::string_view cell;
  for (bool last = false; !last;) {
    PTA_RETURN_IF_ERROR(scan.NextCell(&cell, &last));
    header.emplace_back(cell);
  }
  const size_t m = schema.num_attributes();
  if (header.size() != m + 2) {
    return Status::InvalidArgument("CSV header arity mismatch");
  }
  for (size_t i = 0; i < m; ++i) {
    if (header[i] != schema.attribute(i).name) {
      return Status::InvalidArgument("CSV header column " +
                                     std::to_string(i) + " is '" +
                                     header[i] + "', expected '" +
                                     schema.attribute(i).name + "'");
    }
  }
  if (header[m] != "tb" || header[m + 1] != "te") {
    return Status::InvalidArgument("CSV must end with tb,te columns");
  }

  const size_t lines =
      static_cast<size_t>(std::count(text.begin(), text.end(), '\n'));
  std::vector<Column> columns;
  columns.reserve(m);
  for (const AttributeDef& attr : schema.attributes()) {
    columns.emplace_back(attr.type).Reserve(lines);
  }
  std::vector<Chronon> tb, te;
  tb.reserve(lines);
  te.reserve(lines);
  while (scan.SkipBlankLines()) {
    const size_t line = scan.line();
    auto row_error = [line](const char* what) {
      return Status::InvalidArgument("CSV row " + std::to_string(line) + what);
    };
    int64_t ts[2] = {0, 0};
    size_t cells = 0;
    for (bool last = false; !last; ++cells) {
      PTA_RETURN_IF_ERROR(scan.NextCell(&cell, &last));
      if (cells < m) {
        PTA_RETURN_IF_ERROR(ParseCellInto(cell, &columns[cells]));
      } else if (cells < m + 2) {
        if (cell.empty()) return row_error(" has empty timestamp");
        auto t = ParseNumber<int64_t>(cell);
        if (!t.ok()) return t.status();
        ts[cells - m] = *t;
      }
    }
    if (cells != m + 2) return row_error(" arity mismatch");
    if (ts[0] > ts[1]) return row_error(" has tb > te");
    tb.push_back(ts[0]);
    te.push_back(ts[1]);
  }
  return TemporalRelation::FromColumns(schema, std::move(columns),
                                       std::move(tb), std::move(te));
}

Status WriteCsvFile(const TemporalRelation& rel, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  const std::string text = RelationToCsv(rel);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

Result<TemporalRelation> ReadCsvFile(const std::string& path,
                                     const Schema& schema) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return RelationFromCsv(buf.str(), schema);
}

}  // namespace pta
