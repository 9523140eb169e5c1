// Small string utilities shared across loaders and the knowledge base.
#ifndef SMARTML_COMMON_STRINGS_H_
#define SMARTML_COMMON_STRINGS_H_

#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace smartml {

/// Splits `s` on `delim`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// Appends the fields of one CSV record (a line without its '\n') to
/// *fields. Quotes toggle anywhere in a field, so a quoted delimiter is
/// data; "" inside quotes is a literal quote; '\r' outside quotes is
/// dropped. A field is a view into `line`, except a quoted field or one
/// holding '\r', which is unescaped into *owned (a deque, so earlier views
/// stay valid as it grows). In a record with no quote and no other '\r', a
/// CRLF's trailing '\r' is cut off its field's view instead.
void SplitCsvRecord(std::string_view line, char delim,
                    std::vector<std::string_view>* fields,
                    std::deque<std::string>* owned);

/// SplitCsvRecord with each field copied.
std::vector<std::string> SplitCsvLine(std::string_view line, char delim = ',');

/// Removes leading/trailing ASCII whitespace.
std::string_view StripAsciiWhitespace(std::string_view s);

/// Lower-cases ASCII letters.
std::string AsciiToLower(std::string_view s);

/// True if strtod consumes all of `s` (trimmed of ASCII whitespace); stores
/// the value in *out. Finite decimals take a faster, equally exact parser.
bool ParseDouble(std::string_view s, double* out);

/// ParseDouble for a token already stripped of ASCII whitespace (the CSV
/// reader strips each cell once, then parses it).
bool ParseStrippedDouble(std::string_view s, double* out);

/// Joins items with `sep`.
std::string Join(const std::vector<std::string>& items, std::string_view sep);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace smartml

#endif  // SMARTML_COMMON_STRINGS_H_
