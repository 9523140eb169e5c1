#include "src/ml/registry.h"

#include "src/ml/boosting.h"
#include "src/ml/discriminant.h"
#include "src/ml/forest.h"
#include "src/ml/knn.h"
#include "src/ml/lmt.h"
#include "src/ml/naive_bayes.h"
#include "src/ml/neuralnet.h"
#include "src/ml/plsda.h"
#include "src/ml/svm.h"
#include "src/ml/tree_classifiers.h"

namespace smartml {

namespace {

// One row of Table 3: the paper's metadata, a factory and the declared
// hyperparameter space.
struct Row {
  AlgorithmInfo info;
  std::unique_ptr<Classifier> (*create)();
  ParamSpace (*space)();
};

template <typename T>
Row Learner(AlgorithmInfo info) {
  return {std::move(info),
          []() -> std::unique_ptr<Classifier> { return std::make_unique<T>(); },
          &T::Space};
}

// Table 3 of the paper, in order. Parameter counts match the table.
const std::vector<Row>& Table() {
  static const std::vector<Row> kTable = {
      Learner<SvmClassifier>({"svm", "SVM", "e1071", 1, 4}),
      Learner<NaiveBayesClassifier>(
          {"naive_bayes", "NaiveBayes", "klaR", 0, 2}),
      Learner<KnnClassifier>({"knn", "KNN", "FNN", 0, 1}),
      Learner<BaggingClassifier>({"bagging", "Bagging", "ipred", 0, 5}),
      Learner<PartClassifier>({"part", "part", "RWeka", 1, 2}),
      Learner<J48Classifier>({"j48", "J48", "RWeka", 1, 2}),
      Learner<RandomForestClassifier>(
          {"random_forest", "RandomForest", "randomForest", 0, 3}),
      Learner<C50Classifier>({"c50", "c50", "C50", 3, 2}),
      Learner<RpartClassifier>({"rpart", "rpart", "rpart", 0, 4}),
      Learner<LdaClassifier>({"lda", "LDA", "MASS", 1, 1}),
      Learner<PlsdaClassifier>({"plsda", "PLSDA", "caret", 1, 1}),
      Learner<LmtClassifier>({"lmt", "LMT", "RWeka", 0, 1}),
      Learner<RdaClassifier>({"rda", "RDA", "klaR", 0, 2}),
      Learner<NeuralNetClassifier>({"neuralnet", "NeuralNet", "nnet", 0, 1}),
      Learner<DeepBoostClassifier>(
          {"deepboost", "DeepBoost", "deepboost", 1, 4}),
  };
  return kTable;
}

StatusOr<const Row*> Find(const std::string& name) {
  for (const Row& row : Table()) {
    if (row.info.name == name) return &row;
  }
  return Status::NotFound("unknown algorithm '" + name + "'");
}

}  // namespace

const std::vector<AlgorithmInfo>& AllAlgorithms() {
  static const std::vector<AlgorithmInfo> kAlgorithms = [] {
    std::vector<AlgorithmInfo> infos;
    for (const Row& row : Table()) infos.push_back(row.info);
    return infos;
  }();
  return kAlgorithms;
}

std::vector<std::string> AllAlgorithmNames() {
  std::vector<std::string> names;
  names.reserve(Table().size());
  for (const Row& row : Table()) names.push_back(row.info.name);
  return names;
}

bool IsKnownAlgorithm(const std::string& name) { return Find(name).ok(); }

StatusOr<std::unique_ptr<Classifier>> CreateClassifier(
    const std::string& name) {
  SMARTML_ASSIGN_OR_RETURN(const Row* row, Find(name));
  return row->create();
}

StatusOr<ParamSpace> SpaceFor(const std::string& name) {
  SMARTML_ASSIGN_OR_RETURN(const Row* row, Find(name));
  return row->space();
}

}  // namespace smartml
