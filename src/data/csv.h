// CSV reading/writing for Dataset (one of the two input formats the paper's
// input-definition phase accepts).
#ifndef SMARTML_DATA_CSV_H_
#define SMARTML_DATA_CSV_H_

#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/data/dataset.h"

namespace smartml {

struct CsvOptions {
  char delimiter = ',';
  bool has_header = true;
  /// Name of the target column; empty means "use target_index".
  std::string target_column;
  /// Index of the target column; -1 means the last column.
  int target_index = -1;
  /// Cell values (after trimming) treated as missing.
  std::vector<std::string> missing_tokens = {"", "?", "NA", "na", "NaN"};
};

/// Parses CSV text into a Dataset. Column types are inferred: a column whose
/// every non-missing cell parses as a double becomes numeric, otherwise
/// categorical (dictionary in first-appearance order). One pass splits the
/// text into views and each cell is parsed at most once; only quoted fields
/// and fields holding '\r' are copied.
StatusOr<Dataset> ReadCsvString(std::string_view text,
                                const CsvOptions& options = {});

/// Reads a CSV file from disk.
StatusOr<Dataset> ReadCsvFile(const std::string& path,
                              const CsvOptions& options = {});

/// Serializes a Dataset to CSV (header row, target as last column).
std::string WriteCsvString(const Dataset& dataset, char delimiter = ',');

/// Writes a Dataset to a CSV file.
Status WriteCsvFile(const Dataset& dataset, const std::string& path,
                    char delimiter = ',');

}  // namespace smartml

#endif  // SMARTML_DATA_CSV_H_
