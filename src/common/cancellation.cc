#include "src/common/cancellation.h"

namespace smartml {

namespace {
/// The innermost ScopedRunContext of this thread. Thread-local so concurrent
/// JobManager workers never interfere.
thread_local RunContext current_context;
}  // namespace

Status RunBudget::Check(const char* what) const {
  if (Cancelled()) {
    return Status::Cancelled(std::string(what) + ": run cancelled");
  }
  if (DeadlineExpired()) {
    return Status::DeadlineExceeded(std::string(what) +
                                    ": run budget exhausted");
  }
  return Status::OK();
}

ScopedRunContext::ScopedRunContext(const RunContext& context)
    : previous_(current_context) {
  current_context = context;
}

ScopedRunContext::~ScopedRunContext() { current_context = previous_; }

const RunContext& CurrentRunContext() { return current_context; }

bool CancellationRequested() {
  return current_context.cancel != nullptr &&
         current_context.cancel->IsCancelled();
}

}  // namespace smartml
