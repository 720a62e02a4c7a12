#ifndef PORYGON_COMMON_CLAUSE_H_
#define PORYGON_COMMON_CLAUSE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

/// The one grammar behind every CLI spec (`--faults=`, `--adversary=`,
/// `--workload=`, `--dissemination=`, the soak's `--replay=`) and every
/// numeric CLI flag: separator-delimited `key:value` clauses, strict number
/// parsing, name tables for enums, one error shape and one `%g` formatter.
/// Each spec keeps only its own field table and cross-field checks.
namespace porygon::clause {

/// One clause: the text before its first ':' and the verbatim rest after
/// it, so values with their own separators (`amount:1:100`, `crash:0:6`,
/// `chunks:4/6`, a nested comma-spec) reach the field parser untouched.
struct Clause {
  std::string_view text;   ///< The whole clause, for error messages.
  std::string_view key;
  std::string_view value;  ///< Empty when the clause has no ':'.
  bool has_value = false;  ///< Whether the clause had a ':' at all.
};

/// Cuts `text` at its first `sep` into key and value.
Clause Cut(std::string_view text, char sep = ':');

/// Splits `spec` on `sep`, skips empty clauses, and cuts each at its first
/// ':'. The views point into `spec`.
std::vector<Clause> Split(std::string_view spec, char sep = ',');

/// Strict decimal parsers (std::from_chars). Each rejects empty input,
/// whitespace, a leading '+', trailing characters and out-of-range values,
/// and leaves `*out` untouched on failure. ParseU64 also rejects any sign;
/// ParseInt and ParseReal accept only values in [lo, hi]. ParseReal reads
/// finite values only: no nan/inf, and no overflow or underflow to ±inf
/// or 0.
bool ParseU64(std::string_view s, uint64_t* out);
bool ParseInt(std::string_view s, int* out,
              int lo = std::numeric_limits<int>::min(),
              int hi = std::numeric_limits<int>::max());
bool ParseReal(std::string_view s, double* out,
               double lo = std::numeric_limits<double>::lowest(),
               double hi = std::numeric_limits<double>::max());

/// kInvalidArgument naming the grammar and the clause, plus `why` when
/// given: "bad <grammar> clause '<clause>'[: <why>]".
Status Bad(std::string_view grammar, std::string_view clause,
           std::string_view why = {});

/// `%g` rendering, the canonical form of every real in a spec string.
std::string FormatG(double v);

/// One row of an enum's name table; the first row is the fallback name.
template <typename E>
struct Named {
  E value;
  const char* name;
};

template <typename E, size_t N>
const char* NameOf(const Named<E> (&table)[N], E value) {
  for (const Named<E>& row : table) {
    if (row.value == value) return row.name;
  }
  return table[0].name;
}

template <typename E, size_t N>
bool FromName(const Named<E> (&table)[N], std::string_view name, E* out) {
  for (const Named<E>& row : table) {
    if (name == row.name) {
      *out = row.value;
      return true;
    }
  }
  return false;
}

}  // namespace porygon::clause

#endif  // PORYGON_COMMON_CLAUSE_H_
