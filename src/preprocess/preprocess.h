// Feature preprocessing operators (Table 2 of the paper): center, scale,
// range, zv, boxcox, yeojohnson, pca, ica — plus median/mode imputation,
// which the orchestrator inserts automatically when data has missing cells.
//
// All operators follow fit-on-train / transform-anywhere semantics so the
// validation partition is never allowed to leak statistics into training.
// Numeric columns are transformed; categorical columns pass through
// untouched (except zv, which can drop constant categoricals too).
#ifndef SMARTML_PREPROCESS_PREPROCESS_H_
#define SMARTML_PREPROCESS_PREPROCESS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/data/dataset.h"

namespace smartml {

/// The preprocessing operators of Table 2 (+ imputation).
enum class PreprocessOp {
  kImpute,      ///< Median (numeric) / mode (categorical) imputation.
  kCenter,      ///< Subtract mean from values.
  kScale,       ///< Divide values by standard deviation.
  kRange,       ///< Normalize values to [0, 1].
  kZeroVariance,///< Remove attributes with zero variance.
  kBoxCox,      ///< Box-Cox transform of positive-valued columns.
  kYeoJohnson,  ///< Yeo-Johnson transform of all values.
  kPca,         ///< Project numeric block onto principal components.
  kIca,         ///< Project numeric block onto independent components.
};

/// Stable lower-case name ("center", "boxcox", ...), matching the paper.
const char* PreprocessOpName(PreprocessOp op);

/// Parses a Table 2 operator name.
StatusOr<PreprocessOp> ParsePreprocessOp(const std::string& name);

/// All operators in Table 2 order (excluding the implicit kImpute).
std::vector<PreprocessOp> AllPreprocessOps();

/// A fitted, reusable transform.
class Preprocessor {
 public:
  virtual ~Preprocessor() = default;
  virtual PreprocessOp op() const = 0;
  /// Learns transform statistics from `train`.
  virtual Status Fit(const Dataset& train) = 0;
  /// Applies the fitted transform; `data` must share the training schema.
  virtual StatusOr<Dataset> Transform(const Dataset& data) const = 0;
};

/// Creates an unfitted operator instance. `seed` only matters for kIca.
std::unique_ptr<Preprocessor> CreatePreprocessor(PreprocessOp op,
                                                 uint64_t seed = 101);

/// An ordered chain of operators fitted as a unit: each step is fitted on
/// the output of the previous one.
class PreprocessPipeline {
 public:
  /// Builds the chain (unfitted). Duplicate ops are allowed.
  explicit PreprocessPipeline(std::vector<PreprocessOp> ops,
                              uint64_t seed = 101);
  PreprocessPipeline() = default;

  Status Fit(const Dataset& train);
  StatusOr<Dataset> Transform(const Dataset& data) const;
  StatusOr<Dataset> FitTransform(const Dataset& train);

  bool fitted() const { return fitted_; }

 private:
  std::vector<std::unique_ptr<Preprocessor>> steps_;
  bool fitted_ = false;
};

}  // namespace smartml

#endif  // SMARTML_PREPROCESS_PREPROCESS_H_
