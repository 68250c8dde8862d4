package repro.baselines

import repro.graph.{Hashing, LocalGraph}

/** A vertex partitioning: one label per local vertex id of `graph`. */
final case class VertexPartition(graph: LocalGraph, labels: Array[Int])

/** Vertex-partition → edge-partition conversion used by the paper to
  * compare against vertex partitioners (ParMETIS, Spinner, XtraPuLP):
  * "each edge is randomly assigned to one of its adjacent vertices'
  * partitions" (Bourse et al. KDD'14). The coin is a deterministic hash of
  * the edge so the conversion is reproducible.
  */
object VertexCutConversion {

  private val Seed = 7L

  def toEdgePartition(edges: Array[(Long, Long)], labelOf: Long => Int): Array[Int] =
    edges.map { case (u, v) =>
      val pu = labelOf(u); val pv = labelOf(v)
      if (pu == pv) pu
      else if ((Hashing.mix64(Seed ^ Hashing.mix64(u) ^ v) & 1L) == 0L) pu
      else pv
    }

  def fromVertexPartition(vp: VertexPartition, edges: Array[(Long, Long)]): Array[Int] =
    toEdgePartition(edges, x => vp.labels(vp.graph.localId(x)))
}
