#include "src/data/dataset.h"

#include <algorithm>
#include <unordered_map>

#include "src/common/strings.h"

namespace smartml {

size_t Dataset::NumNumericFeatures() const {
  size_t n = 0;
  for (const auto& f : features_) {
    if (!f.is_categorical()) ++n;
  }
  return n;
}

size_t Dataset::NumCategoricalFeatures() const {
  return features_.size() - NumNumericFeatures();
}

void Dataset::AddNumericFeature(std::string name, std::vector<double> values) {
  FeatureColumn col;
  col.name = std::move(name);
  col.type = FeatureType::kNumeric;
  col.values = std::move(values);
  features_.push_back(std::move(col));
  InvalidateBinned();
}

void Dataset::AddCategoricalFeature(std::string name, std::vector<double> codes,
                                    std::vector<std::string> categories) {
  FeatureColumn col;
  col.name = std::move(name);
  col.type = FeatureType::kCategorical;
  col.values = std::move(codes);
  col.categories = std::move(categories);
  features_.push_back(std::move(col));
  InvalidateBinned();
}

void Dataset::SetLabels(std::vector<int> labels,
                        std::vector<std::string> class_names) {
  labels_ = std::move(labels);
  class_names_ = std::move(class_names);
}

void Dataset::SetLabelsFromStrings(const std::vector<std::string>& raw) {
  std::unordered_map<std::string, int> index;
  labels_.clear();
  class_names_.clear();
  labels_.reserve(raw.size());
  for (const std::string& s : raw) {
    auto it = index.find(s);
    if (it == index.end()) {
      it = index.emplace(s, static_cast<int>(class_names_.size())).first;
      class_names_.push_back(s);
    }
    labels_.push_back(it->second);
  }
}

Status Dataset::RemoveFeature(size_t index) {
  if (index >= features_.size()) {
    return Status::InvalidArgument(
        StrFormat("RemoveFeature index %zu out of range (have %zu features)",
                  index, features_.size()));
  }
  features_.erase(features_.begin() + static_cast<ptrdiff_t>(index));
  InvalidateBinned();
  return Status::OK();
}

Status Dataset::Validate() const {
  const size_t n = NumRows();
  for (const auto& f : features_) {
    if (f.values.size() != n) {
      return Status::InvalidArgument(
          StrFormat("column '%s' has %zu values, expected %zu rows",
                    f.name.c_str(), f.values.size(), n));
    }
    if (f.is_categorical()) {
      for (double v : f.values) {
        if (IsMissing(v)) continue;
        const auto code = static_cast<long>(v);
        if (code < 0 || static_cast<size_t>(code) >= f.categories.size() ||
            static_cast<double>(code) != v) {
          return Status::InvalidArgument(
              StrFormat("column '%s' has invalid category code", f.name.c_str()));
        }
      }
    }
  }
  for (int y : labels_) {
    if (y < 0 || static_cast<size_t>(y) >= class_names_.size()) {
      return Status::InvalidArgument("label index out of range");
    }
  }
  return Status::OK();
}

Dataset Dataset::Subset(const std::vector<size_t>& rows) const {
  Dataset out(name_);
  for (const auto& f : features_) {
    FeatureColumn col;
    col.name = f.name;
    col.type = f.type;
    col.categories = f.categories;
    col.values.reserve(rows.size());
    for (size_t r : rows) col.values.push_back(f.values[r]);
    out.features_.push_back(std::move(col));
  }
  out.class_names_ = class_names_;
  out.labels_.reserve(rows.size());
  for (size_t r : rows) out.labels_.push_back(labels_[r]);
  return out;
}

bool Dataset::HasMissing() const { return CountMissing() > 0; }

size_t Dataset::CountMissing() const {
  size_t n = 0;
  for (const auto& f : features_) {
    for (double v : f.values) {
      if (IsMissing(v)) ++n;
    }
  }
  return n;
}

std::vector<size_t> Dataset::ClassCounts() const {
  std::vector<size_t> counts(NumClasses(), 0);
  for (int y : labels_) counts[static_cast<size_t>(y)]++;
  return counts;
}

Matrix Dataset::ToRawMatrix() const {
  const size_t n = NumRows();
  Matrix x(n, features_.size());
  for (size_t c = 0; c < features_.size(); ++c) {
    const auto& vals = features_[c].values;
    for (size_t r = 0; r < n; ++r) x(r, c) = vals[r];
  }
  return x;
}

std::shared_ptr<const BinnedColumns> Dataset::Binned() const {
  std::lock_guard<std::mutex> lock(*binned_mutex_);
  if (!binned_cache_) {
    // Row count comes from the columns themselves so the view is usable on
    // feature-only tables too (labels play no part in binning).
    const size_t n = features_.empty() ? 0 : features_[0].values.size();
    BinnedColumns::Builder builder(n);
    for (const auto& f : features_) {
      if (f.is_categorical()) {
        builder.AddCategoricalColumn(f.values.data(), 1, f.num_categories());
      } else {
        builder.AddNumericColumn(f.values.data(), 1);
      }
    }
    binned_cache_ = std::make_shared<const BinnedColumns>(
        std::move(builder).Build());
  }
  return binned_cache_;
}

}  // namespace smartml
