package repro.graph

/** Partition-quality metrics from §2 and §7.6 of the paper, computed on
  * the driver over the assignment triples `(u, v, part)`.
  *
  * Definitions (paper Eq. 1 and §7.6):
  *  - replication factor  RF = (1/|V|) Σ_p |V(E_p)|
  *  - edge balance        EB = max_p |E_p| / mean_p |E_p|
  *  - vertex balance      VB = max_p |V(E_p)| / mean_p |V(E_p)|
  * with |V| = |V(E)| (vertices incident to at least one edge), and the
  * means over the partitions that hold at least one edge.
  *
  * Tests check these against DuckDB SQL via the test-only `repro.Oracle`.
  */
object LocalMetrics {

  def numVertices(edges: Array[(Long, Long)]): Long = {
    val s = new java.util.HashSet[Long]()
    edges.foreach { case (u, v) => s.add(u); s.add(v) }
    s.size.toLong
  }

  def replicationFactor(assign: Array[(Long, Long, Int)]): Double = {
    val reps = new java.util.HashSet[(Long, Int)]()
    val verts = new java.util.HashSet[Long]()
    assign.foreach { case (u, v, p) =>
      reps.add((u, p)); reps.add((v, p))
      verts.add(u); verts.add(v)
    }
    require(verts.size > 0, "empty graph has no replication factor")
    reps.size.toDouble / verts.size
  }

  def edgeBalance(assign: Array[(Long, Long, Int)]): Double = {
    val counts = assign.groupBy(_._3).map(_._2.length.toDouble)
    if (counts.isEmpty) 1.0 else counts.max / (counts.sum / counts.size)
  }

  def vertexBalance(assign: Array[(Long, Long, Int)]): Double = {
    val perPart = assign.groupBy(_._3).map { case (_, es) =>
      val s = new java.util.HashSet[Long]()
      es.foreach { case (u, v, _) => s.add(u); s.add(v) }
      s.size.toDouble
    }
    if (perPart.isEmpty) 1.0 else perPart.max / (perPart.sum / perPart.size)
  }
}
