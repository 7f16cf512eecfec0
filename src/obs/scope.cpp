#include "obs/scope.hpp"

#include <utility>

namespace t1000::obs {

Scope::Scope(Histogram* histogram, Journal* journal,
             const TraceContext& context, std::string name, Json attrs)
    : histogram_(histogram), context_(context) {
  if (journal != nullptr && context.active()) {
    journal_ = journal;
    name_ = std::move(name);
    span_id_ = journal_->begin_span(context_, name_, std::move(attrs));
  }
  start_ = std::chrono::steady_clock::now();
}

TraceContext Scope::context() const {
  return journal_ != nullptr ? TraceContext{context_.trace_id, span_id_}
                             : context_;
}

std::uint64_t Scope::elapsed_ns() const {
  if (closed_) return elapsed_ns_;
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
  return ns < 0 ? 0 : static_cast<std::uint64_t>(ns);
}

std::uint64_t Scope::close() {
  if (closed_) return elapsed_ns_;
  elapsed_ns_ = elapsed_ns();
  closed_ = true;
  if (histogram_ != nullptr) histogram_->observe(elapsed_ns_);
  if (journal_ != nullptr) {
    journal_->end_span(context_, span_id_, std::move(name_),
                       std::move(end_attrs_));
  }
  return elapsed_ns_;
}

}  // namespace t1000::obs
