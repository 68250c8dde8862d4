package repro.core

import repro.graph.{LocalGraph, PartitionSets}

import scala.collection.mutable.{ArrayBuffer, ArrayBuilder}

/** One *allocation process* (§3.3/§4 of the paper) at work: the slice of
  * the input graph that 2D-hash placement assigned to this grid cell (its
  * topology, `graph`), together with the cell's mutable allocation state:
  *  - `alloc`        — per-edge partition id, -1 = unallocated
  *  - `memberships`  — per local vertex, the set of partitions it has been
  *                      allocated to (the replicated vertex allocation ids
  *                      the paper synchronises), a [[PartitionSets]]
  *  - `unallocCount` — per local vertex, its local D_rest (number of local
  *                      unallocated incident edges)
  *
  * DistributedNE caches each cell's immutable `LocalGraph` once per call.
  * Its loop tasks derive each cell's initial state from it with
  * [[SubGraphState.initial]] and update that state in place, iteration
  * after iteration; at the end they cache the final states alone
  * ([[SubGraphState.State]]), which `Result.assignments` puts together with
  * their topology again.
  */
final class SubGraphState private (
    val cellId: Int,
    val graph: LocalGraph,
    val alloc: Array[Int],
    val memberships: PartitionSets,
    val unallocCount: Array[Int]
) {
  import graph.{adjEdge, adjOff, vertexIds}

  /** The allocation state alone, on this cell's arrays (not a copy). */
  def state: SubGraphState.State = new SubGraphState.State(cellId, alloc, memberships, unallocCount)

  /** Allocates edge `e` to `p` and logs it: each endpoint in `touched`,
    * and each endpoint new to `p` in `joined`.
    */
  private def allocateEdge(e: Int, p: Int, log: SubGraphState.Log): Unit = {
    alloc(e) = p
    var side = 0
    while (side < 2) {
      val lx = if (side == 0) graph.lsrc(e) else graph.ldst(e)
      unallocCount(lx) -= 1
      log.touched += lx
      if (memberships.add(lx, p)) { log.joined += vertexIds(lx); log.joinedPart += p }
      side += 1
    }
  }

  /** Phase 1 — AllocateOneHopNeighbors (Alg. 3): allocate every local
    * unallocated edge incident to a selected vertex. The allocation conflict
    * (both endpoints selected by different partitions) is resolved locally
    * and deterministically: the less-loaded partition wins, ties to the
    * smaller id — the distributed analogue of the paper's CAS.
    *
    * @param selVertex the selected (vertex, `selPart`) pairs in the driver's
    *               sorted order. The driver lists each vertex once; one
    *               listed for several partitions expands for each of them,
    *               but as the far end of an edge it claims for the first.
    * @param sizes  global |E_p| snapshot from the driver (start of iteration)
    * @param delta  per-partition edges allocated locally this iteration
    *               (updated in place; used to keep conflict resolution and
    *               two-hop target choice load-aware within the iteration)
    * @param quota  per-partition cap on `delta` for this iteration
    * @param log    takes the new (vertex, partition) memberships to
    *               synchronise and the ends of the allocated edges
    */
  def allocateOneHop(selVertex: Array[Long], selPart: Array[Int],
                     sizes: Array[Long],
                     delta: Array[Long],
                     quota: Array[Long],
                     log: SubGraphState.Log): Unit = {
    // Capacity-aware allocation (Eq. 2's constraint enforced *during* the
    // iteration): the driver hands every cell a per-partition quota of
    // ⌈(cap − |E_p|)/A⌉ edges, so even with all A cells allocating
    // concurrently the global overshoot past the cap is at most ~A edges.
    // At repro scale a single hub's neighborhood can exceed the entire
    // per-partition cap, so the paper's unchecked "allocate all one-hop
    // edges" would wreck the edge balance the paper reports (EB ≈ α).
    // An edge whose claimants are all at quota stays unallocated for a
    // later iteration; termination is unaffected because some partition is
    // always below cap while edges remain.
    def feasible(q: Int): Boolean = delta(q) < quota(q)
    val local = selVertex.map(graph.localId)
    val firstPart = Array.fill(graph.numVertices)(-1) // first selecting partition
    var i = 0
    while (i < selVertex.length) {
      if (local(i) >= 0 && firstPart(local(i)) < 0) firstPart(local(i)) = selPart(i)
      i += 1
    }
    i = 0
    while (i < selVertex.length) {
      val lv = local(i)
      val p = selPart(i)
      if (lv >= 0) {
        var k = adjOff(lv)
        val end = adjOff(lv + 1)
        while (k < end) {
          val e = adjEdge(k)
          if (alloc(e) < 0) {
            val q = firstPart(graph.other(e, lv))
            val winner =
              if (q < 0 || q == p) { if (feasible(p)) p else -1 }
              else (feasible(p), feasible(q)) match {
                case (true, false) => p
                case (false, true) => q
                case (false, false) => -1
                case (true, true) =>
                  val loadP = sizes(p) + delta(p)
                  val loadQ = sizes(q) + delta(q)
                  if (loadP < loadQ || (loadP == loadQ && p < q)) p else q
              }
            if (winner >= 0) {
              allocateEdge(e, winner, log)
              delta(winner) += 1
            }
          }
          k += 1
        }
      }
      i += 1
    }
  }

  /** Phase 2 — SyncVertexAllocations: apply the iteration's new (vertex,
    * partition) memberships to the local replicas, skipping other vertices.
    * @return the local ids of the locally-present synced vertices, each
    *         once, in order of first appearance: the local view of BP_new
    *         to scan for two-hop allocation. A vertex synced for several
    *         partitions is scanned once; a second scan could allocate
    *         nothing, as phase 3 adds no membership and only fills quotas.
    */
  def applySync(vertex: Array[Long], part: Array[Int]): Array[Int] = {
    val listed = new Array[Boolean](graph.numVertices)
    val local = new ArrayBuilder.ofInt
    var i = 0
    while (i < vertex.length) {
      val lx = graph.localId(vertex(i))
      if (lx >= 0) {
        memberships.add(lx, part(i))
        if (!listed(lx)) { listed(lx) = true; local += lx }
      }
      i += 1
    }
    local.result()
  }

  /** Phase 3 — AllocateTwoHopNeighbors (Alg. 3): for each synced boundary
    * vertex u, allocate each local unallocated edge (u,w) whose endpoints
    * already share a partition; such edges never increase replication
    * (Condition (5)). The target is the least-loaded shared partition.
    * The allocated edges' ends go to `log.touched`.
    */
  def allocateTwoHop(bpNew: Array[Int],
                     sizes: Array[Long],
                     delta: Array[Long],
                     quota: Array[Long],
                     log: SubGraphState.Log): Unit = {
    var i = 0
    while (i < bpNew.length) {
      val lu = bpNew(i)
      var k = adjOff(lu)
      val end = adjOff(lu + 1)
      while (k < end) {
        val e = adjEdge(k)
        if (alloc(e) < 0) {
          val lw = graph.other(e, lu)
          val pNew = leastLoadedShared(lu, lw, sizes, delta, quota)
          if (pNew >= 0) {
            val before = log.joined.length
            allocateEdge(e, pNew, log)
            // Both endpoints already hold pNew, so no membership can appear.
            assert(log.joined.length == before,
              s"two-hop allocation created a membership for edge $e")
            delta(pNew) += 1
          }
        }
        k += 1
      }
      i += 1
    }
  }

  /** argmin load over the partitions that local vertices `lu` and `lw`
    * share; -1 if they share none. Partitions are visited in ascending
    * order, so ties break to the smaller id.
    */
  private def leastLoadedShared(lu: Int, lw: Int,
                                sizes: Array[Long], delta: Array[Long],
                                quota: Array[Long]): Int = {
    var best = -1; var bestLoad = Long.MaxValue
    var w = 0
    while (w < memberships.words) {
      var shared = memberships.word(lu, w) & memberships.word(lw, w)
      while (shared != 0) {
        val p = (w << 6) + java.lang.Long.numberOfTrailingZeros(shared)
        val load = sizes(p) + delta(p)
        val feasible = delta(p) < quota(p)
        if (feasible && load < bestLoad) { best = p; bestLoad = load }
        shared &= shared - 1
      }
      w += 1
    }
    best
  }

  /** Phase 4 — ComputeLocalDrest: the local D_rest of each synced boundary
    * vertex (local ids `bpNew`), once per vertex in ascending local id, as
    * parallel arrays (vertex, local D_rest). Zeros are dropped — a vertex
    * with no unallocated edges is not in the boundary B(X) by definition.
    */
  def localDrest(bpNew: Array[Int]): (Array[Long], Array[Int]) =
    perVertex(bpNew.clone())((lv, _) => unallocCount(lv))

  /** How far each logged vertex's local D_rest fell in the iteration, once
    * per vertex in ascending local id, as parallel arrays (vertex, decrement).
    */
  def drestDrops(log: SubGraphState.Log): (Array[Long], Array[Int]) =
    perVertex(log.touched.result())((_, times) => times)

  /** Each distinct local id of `lvs` (sorted in place), ascending, as its
    * vertex id and `f(local id, times it occurs)`; zero values are dropped.
    */
  private def perVertex(lvs: Array[Int])(f: (Int, Int) => Int): (Array[Long], Array[Int]) = {
    java.util.Arrays.sort(lvs)
    val (vs, values) = (new ArrayBuilder.ofLong, new ArrayBuilder.ofInt)
    var i = 0
    while (i < lvs.length) {
      var j = i + 1
      while (j < lvs.length && lvs(j) == lvs(i)) j += 1
      val value = f(lvs(i), j - i)
      if (value != 0) { vs += vertexIds(lvs(i)); values += value }
      i = j
    }
    (vs.result(), values.result())
  }

  /** Up to `k` local vertices that still have unallocated edges, scanned
    * from a seeded offset so the random restarts are not id-biased.
    * Feeds the driver's random-vertex pool (Alg. 1 line 7).
    */
  def sampleUnallocated(k: Int, seed: Long): Array[Long] = {
    val n = graph.numVertices
    if (n == 0) return Array.empty
    val start = (java.lang.Long.remainderUnsigned(repro.graph.Hashing.mix64(seed ^ cellId), n.toLong)).toInt
    val out = new ArrayBuffer[Long](k)
    var step = 0
    while (step < n && out.length < k) {
      val lv = (start + step) % n
      if (unallocCount(lv) > 0) out += vertexIds(lv)
      step += 1
    }
    out.toArray
  }

  /** Final assignment triples; only valid once every edge is allocated. */
  def assignments: Iterator[(Long, Long, Int)] =
    (0 until graph.numEdges).iterator.map { e =>
      require(alloc(e) >= 0, s"edge $e in cell $cellId left unallocated")
      (vertexIds(graph.lsrc(e)), vertexIds(graph.ldst(e)), alloc(e))
    }
}

object SubGraphState {

  /** What an iteration's allocations change beyond the state: the new
    * (vertex, partition) memberships, in allocation order, and one local
    * vertex id per end of each allocated edge (its local D_rest fell by 1).
    */
  final class Log {
    val joined = new ArrayBuilder.ofLong
    val joinedPart = new ArrayBuilder.ofInt
    val touched = new ArrayBuilder.ofInt
  }

  /** The mutable allocation state of one cell, without its topology: what
    * the loop caches at its end. Every field is a primitive array or an
    * all-primitive object, so Spark's size estimator walks a cached state in
    * a fixed number of steps.
    */
  final class State(val cellId: Int, val alloc: Array[Int], val memberships: PartitionSets,
                    val unallocCount: Array[Int]) extends Serializable

  /** Cell `state.cellId` on its topology `graph`, with a private copy of
    * `state` (copy-on-write: the arrays are cloned, the topology is shared).
    */
  def of(graph: LocalGraph, state: State): SubGraphState =
    new SubGraphState(state.cellId, graph, state.alloc.clone(), state.memberships.copy(),
      state.unallocCount.clone())

  /** The initial (nothing allocated) state of grid cell `cellId` on its
    * topology `graph`, with room for memberships of partitions
    * `0 until numPartitions`.
    */
  def initial(cellId: Int, numPartitions: Int, graph: LocalGraph): SubGraphState =
    new SubGraphState(cellId, graph, Array.fill(graph.numEdges)(-1),
      PartitionSets(graph.numVertices, numPartitions), Array.tabulate(graph.numVertices)(graph.degree))

  /** [[initial]] on the CSR of `edges`. */
  def build(cellId: Int, numPartitions: Int, edges: Array[(Long, Long)]): SubGraphState =
    initial(cellId, numPartitions, LocalGraph.build(edges))
}
