package repro.graph

import scala.collection.mutable.ArrayBuffer

/** An edge list in CSR over *local* vertex ids — the per-process graph
  * slice of the paper (§4), and the structure NE walks.
  *
  * Local ids number the vertices `0 until numVertices` in order of first
  * appearance in the edge list (source before destination); `vertexIds`
  * maps them back to global ids. Edge `e` joins `lsrc(e)` and `ldst(e)`,
  * and sits under both endpoints in the adjacency `adjEdge(adjOff(lv) until
  * adjOff(lv + 1))`, in edge order. Immutable, so every copy of a mutable
  * state built on it can share one instance.
  */
final class LocalGraph private (
    val vertexIds: Array[Long],
    val lsrc: Array[Int],
    val ldst: Array[Int],
    val adjOff: Array[Int],
    val adjEdge: Array[Int],
    index: java.util.HashMap[java.lang.Long, java.lang.Integer]
) extends Serializable {

  def numEdges: Int = lsrc.length
  def numVertices: Int = vertexIds.length
  def degree(lv: Int): Int = adjOff(lv + 1) - adjOff(lv)

  /** The local id of the endpoint of edge `e` that is not `lv`. */
  def other(e: Int, lv: Int): Int = if (lsrc(e) == lv) ldst(e) else lsrc(e)

  /** The local id of global vertex `x`, or -1 if no edge here touches it. */
  def localId(x: Long): Int = {
    val lx = index.get(x)
    if (lx == null) -1 else lx.intValue()
  }
}

object LocalGraph {

  def build(edges: Array[(Long, Long)]): LocalGraph = {
    val m = edges.length
    val index = new java.util.HashMap[java.lang.Long, java.lang.Integer]()
    val ids = new ArrayBuffer[Long]()
    def intern(x: Long): Int = {
      val known = index.putIfAbsent(x, ids.length)
      if (known != null) known.intValue() else { ids += x; ids.length - 1 }
    }
    val lsrc = new Array[Int](m)
    val ldst = new Array[Int](m)
    var i = 0
    while (i < m) { lsrc(i) = intern(edges(i)._1); ldst(i) = intern(edges(i)._2); i += 1 }
    val n = ids.length
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
    new LocalGraph(ids.toArray, lsrc, ldst, adjOff, adjEdge, index)
  }
}
