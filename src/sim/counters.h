// One declaration per counter.
//
// Each end-of-run stats struct (KernelStats, AsStats, FaultStats,
// RuntimeStats, InterpreterStats, MonitorStats) is declared from an X-macro
// list beside it, one `X(field) /* comment */` per continued line:
//
//   struct FooStats {
//     TMH_FOO_STATS(TMH_COUNTER_MEMBER)   // uint64_t field = 0; ...
//   };
//   TMH_COUNTER_TABLE(FooStats, TMH_FOO_STATS)  // {"field", &FooStats::field}
//
// Consumers (the metrics dump, the fuzz digest, tmh_run's JSON and counter
// table) iterate the table, so adding a counter is one line in its list.
// Comments in a list must be /* */: a // comment would swallow the `\`.

#ifndef TMH_SRC_SIM_COUNTERS_H_
#define TMH_SRC_SIM_COUNTERS_H_

#include <cstdint>
#include <string>

#include "src/sim/metrics.h"

namespace tmh {

template <typename S>
struct CounterField {
  const char* name;
  uint64_t S::*member;
};

// Specialized for each stats struct by TMH_COUNTER_TABLE.
template <typename S>
struct CounterTable;

#define TMH_COUNTER_MEMBER(name) uint64_t name = 0;
#define TMH_COUNTER_FIELD(name) CounterField<S>{#name, &S::name},
#define TMH_COUNTER_TABLE(Struct, LIST)                                   \
  template <>                                                             \
  struct CounterTable<Struct> {                                           \
    using S = Struct;                                                     \
    static constexpr CounterField<S> kFields[] = {LIST(TMH_COUNTER_FIELD)}; \
  };

// Calls fn(name, value) for every counter of `stats`, in declaration order.
template <typename S, typename Fn>
void ForEachCounter(const S& stats, Fn&& fn) {
  for (const CounterField<S>& field : CounterTable<S>::kFields) {
    fn(field.name, stats.*field.member);
  }
}

// Sets counter `<prefix>.<name>{labels}` to each field's value.
template <typename S>
void PublishCounters(MetricsRegistry& registry, const std::string& prefix, const S& stats,
                     const MetricLabels& labels = {}) {
  ForEachCounter(stats, [&](const char* name, uint64_t value) {
    registry.GetCounter(prefix + "." + name, labels)->Set(value);
  });
}

}  // namespace tmh

#endif  // TMH_SRC_SIM_COUNTERS_H_
