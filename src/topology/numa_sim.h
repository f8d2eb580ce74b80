// Simulated NUMA distances (section III-F).
//
// The paper distributes matrix tile-rows round-robin across the memory
// nodes, pins each worker team to one socket, and relies on first-touch so
// the result inherits A's distribution. Placement is AssignHomeNodes
// (tile/partitioner.cc) and local/remote traffic is counted per tile task
// (ops/product_task.cc); this header only models the hop distance the
// work-stealing scheduler orders its victims by.

#ifndef ATMX_TOPOLOGY_NUMA_SIM_H_
#define ATMX_TOPOLOGY_NUMA_SIM_H_

namespace atmx {

// Simulated inter-node hop distance: nodes form a ring, so with 2 nodes
// every remote node is one hop away (the paper's 2-socket case) and with 4
// nodes the opposite socket is two hops (a QPI-style square). Local access
// is distance 0. The work-stealing scheduler uses this to pick the
// NUMA-nearest victim so stolen tasks pay the cheapest possible remote
// traffic.
inline int NumaDistance(int a, int b, int num_nodes) {
  const int d = a > b ? a - b : b - a;
  return d < num_nodes - d ? d : num_nodes - d;
}

}  // namespace atmx

#endif  // ATMX_TOPOLOGY_NUMA_SIM_H_
