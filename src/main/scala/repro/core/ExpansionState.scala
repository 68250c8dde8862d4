package repro.core

import scala.collection.mutable

/** Driver-side state of one *expansion process* (Alg. 1): the boundary
  * priority queue `B_p` keyed by global D_rest, plus the bookkeeping that
  * keeps it a set (each vertex is expanded for a partition at most once —
  * after expansion all its edges are allocated, so it can never re-enter
  * the boundary).
  *
  * Ordering is (D_rest, vertexId) ascending so pops are deterministic.
  */
final class ExpansionState(val partId: Int) {

  private val heap = mutable.PriorityQueue.empty[(Int, Long)](
    Ordering.Tuple2[Int, Long].reverse) // min-heap
  private val seen = new java.util.HashSet[Long]() // ever enqueued or expanded

  var size: Long = 0L       // |E_p| so far (maintained by the driver)
  var done: Boolean = false // reached the α·|E|/|P| cap

  def boundarySize: Int = heap.size

  /** Insert a new boundary vertex with its global D_rest. Duplicate or
    * already-expanded vertices are ignored (stale-score refreshes are not
    * applied, matching Alg. 1 which only inserts new boundaries).
    */
  def insert(vertex: Long, drest: Int): Unit =
    if (seen.add(vertex)) heap.enqueue((drest, vertex))

  /** Marks a random-restart vertex as expanded so a later boundary report
    * for it is not re-enqueued.
    */
  def markExpanded(vertex: Long): Unit = seen.add(vertex)

  /** Multi-expansion pop (Alg. 4): the k-minimum-D_rest vertices with
    * k = max(1, ⌈λ·|B_p|⌉), additionally throttled so the popped D_rest sum
    * does not exceed `budget` (the partition's remaining edge capacity) —
    * this is what keeps the edge balance at ≈ α even with large λ.
    */
  def popKMin(lambda: Double, budget: Long): Array[(Long, Int)] = {
    if (heap.isEmpty) return Array.empty
    val k = math.max(1, math.ceil(lambda * heap.size).toInt)
    val out = new scala.collection.mutable.ArrayBuffer[(Long, Int)](k)
    var drestSum = 0L
    while (out.length < k && heap.nonEmpty && (out.isEmpty || drestSum < budget)) {
      val (d, v) = heap.dequeue()
      out += ((v, d))
      drestSum += d
    }
    out.toArray
  }
}
