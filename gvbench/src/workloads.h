#ifndef GVBENCH_WORKLOADS_H_
#define GVBENCH_WORKLOADS_H_

#include "common.h"

namespace gvbench {

/// Each workload runs one seed: generation, set-up, the untraced timed
/// phase and, with --trace 1, a traced pass on a fresh deployment.
RunOutput RunLookup(const Args& args);
RunOutput RunMediate(const Args& args);
RunOutput RunServe(const Args& args);
RunOutput RunScale(const Args& args);

}  // namespace gvbench

#endif  // GVBENCH_WORKLOADS_H_
