package repro.graph

/** An edge list in CSR over *local* vertex ids — the per-process graph
  * slice of the paper (§4), and the structure NE walks.
  *
  * Local ids number the vertices `0 until numVertices` in order of first
  * appearance in the edge list (source before destination); `vertexIds`
  * maps them back to global ids. Edge `e` joins `lsrc(e)` and `ldst(e)`,
  * and sits under both endpoints in the adjacency `adjEdge(adjOff(lv) until
  * adjOff(lv + 1))`, in edge order. Immutable: DistributedNE builds and
  * caches each cell's `LocalGraph` once per call, and every copy of the
  * cell's allocation state, in every iteration, is put together with that
  * one instance (a cached cell is its state alone).
  *
  * Every field is a primitive array, the global → local index included: an
  * open-addressing table of local ids (-1 = empty slot) probed linearly from
  * the hashed global id, at most half full. Spark's size estimator walks a
  * cached `LocalGraph` in a fixed number of steps, whatever its size.
  */
final class LocalGraph private (
    val vertexIds: Array[Long],
    val lsrc: Array[Int],
    val ldst: Array[Int],
    val adjOff: Array[Int],
    val adjEdge: Array[Int],
    slots: Array[Int]
) extends Serializable {

  def numEdges: Int = lsrc.length
  def numVertices: Int = vertexIds.length
  def degree(lv: Int): Int = adjOff(lv + 1) - adjOff(lv)

  /** The local id of the endpoint of edge `e` that is not `lv`. */
  def other(e: Int, lv: Int): Int = if (lsrc(e) == lv) ldst(e) else lsrc(e)

  /** The local id of global vertex `x`, or -1 if no edge here touches it. */
  def localId(x: Long): Int = slots(LocalGraph.probe(slots, vertexIds, x))
}

object LocalGraph {

  def build(edges: Array[(Long, Long)]): LocalGraph = build(edges.map(_._1), edges.map(_._2))

  /** The CSR of the edges `(src(i), dst(i))`, in index order. */
  def build(src: Array[Long], dst: Array[Long]): LocalGraph = {
    require(src.length == dst.length, s"${src.length} sources but ${dst.length} destinations")
    val m = src.length
    val ids = new Array[Long](2 * m)
    var n = 0
    var slots = Array(-1, -1)
    def intern(x: Long): Int = {
      val s = probe(slots, ids, x)
      if (slots(s) >= 0) slots(s)
      else {
        ids(n) = x; slots(s) = n; n += 1
        if (2 * n > slots.length) slots = rehash(ids, n, 2 * slots.length)
        n - 1
      }
    }
    val lsrc = new Array[Int](m)
    val ldst = new Array[Int](m)
    var i = 0
    while (i < m) { lsrc(i) = intern(src(i)); ldst(i) = intern(dst(i)); i += 1 }
    val adjOff = new Array[Int](n + 1)
    i = 0
    while (i < m) { adjOff(lsrc(i) + 1) += 1; adjOff(ldst(i) + 1) += 1; i += 1 }
    i = 0
    while (i < n) { adjOff(i + 1) += adjOff(i); i += 1 }
    val cursor = adjOff.clone()
    val adjEdge = new Array[Int](2 * m)
    i = 0
    while (i < m) {
      adjEdge(cursor(lsrc(i))) = i; cursor(lsrc(i)) += 1
      adjEdge(cursor(ldst(i))) = i; cursor(ldst(i)) += 1
      i += 1
    }
    new LocalGraph(java.util.Arrays.copyOf(ids, n), lsrc, ldst, adjOff, adjEdge, slots)
  }

  /** The slot of `slots` (length a power of two, never full) that holds the
    * local id of `x`, or else the empty slot where it would go.
    */
  private[repro] def probe(slots: Array[Int], ids: Array[Long], x: Long): Int = {
    val mask = slots.length - 1
    var s = Hashing.mix64(x).toInt & mask
    while (slots(s) >= 0 && ids(slots(s)) != x) s = (s + 1) & mask
    s
  }

  /** A table of `size` slots holding local ids `0 until n`. */
  private[repro] def rehash(ids: Array[Long], n: Int, size: Int): Array[Int] = {
    val slots = Array.fill(size)(-1)
    var lv = 0
    while (lv < n) { slots(probe(slots, ids, ids(lv))) = lv; lv += 1 }
    slots
  }
}
