// The traced run: the layers of one workload hosted in this process, built
// with the same public constructors the shipped tools use, with spans and
// counts recorded around the calls into each layer's public functions.
// Nothing inside src/ is instrumented for it; the service's own
// obs::Tracer (ServiceOptions::tracer) is armed to read its scheduler
// spans, and layers the service calls internally (WAL append, snapshot
// publish, checkpoint, Eclat, JSON, Bloofi, the MINE merge) are timed by
// calling the same public function on the same objects and inputs after
// the load.

#ifndef PERFBENCH_TRACED_H_
#define PERFBENCH_TRACED_H_

#include "common.h"
#include "obs/json.h"

namespace pbench {

/// `pbench traced --workload mine-paper|serve-rw|fleet-read ...`
int CmdTraced(const Args& args);

/// The open-loop self-test (defined with the stalling handler in main.cc).
bbsmine::obs::JsonValue RunSelfTest();

}  // namespace pbench

#endif  // PERFBENCH_TRACED_H_
