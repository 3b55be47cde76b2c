// Umbrella header: everything a downstream user needs to state and solve
// URR instances. Include this (or the individual headers) and link urr::urr.
#ifndef URR_URR_URR_H_
#define URR_URR_URR_H_

#include "cover/areas.h"              // IWYU pragma: export
#include "cover/kspc.h"               // IWYU pragma: export
#include "graph/dimacs.h"             // IWYU pragma: export
#include "graph/generators.h"         // IWYU pragma: export
#include "graph/pseudo_nodes.h"       // IWYU pragma: export
#include "graph/road_network.h"       // IWYU pragma: export
#include "routing/distance_oracle.h"  // IWYU pragma: export
#include "routing/hub_labels.h"       // IWYU pragma: export
#include "sched/insertion.h"          // IWYU pragma: export
#include "sched/reorder.h"            // IWYU pragma: export
#include "sched/transfer_sequence.h"  // IWYU pragma: export
#include "social/social_graph.h"      // IWYU pragma: export
#include "urr/bilateral.h"            // IWYU pragma: export
#include "urr/cost_first.h"           // IWYU pragma: export
#include "urr/cost_model.h"           // IWYU pragma: export
#include "urr/gbs.h"                  // IWYU pragma: export
#include "urr/greedy.h"               // IWYU pragma: export
#include "urr/instance.h"             // IWYU pragma: export
#include "urr/metrics.h"              // IWYU pragma: export
#include "urr/online.h"               // IWYU pragma: export
#include "urr/optimal.h"              // IWYU pragma: export
#include "urr/solution.h"             // IWYU pragma: export
#include "urr/utility.h"              // IWYU pragma: export

#endif  // URR_URR_URR_H_
