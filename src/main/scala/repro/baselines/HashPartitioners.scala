package repro.baselines

import org.apache.spark.rdd.RDD
import repro.graph.{Grid2D, Hashing}

/** The hash-based edge partitioners the paper benchmarks (§2.2, §7):
  * Random (1-D hash), Grid (2-D hash) and DBH.
  * All are stateless one-pass Spark transformations — exactly why they
  * scale and exactly why their quality is poor (random allocation).
  */
object HashPartitioners {

  /** Random / 1D-hash: the edge id is hashed to one dimension. */
  def random1D(edges: RDD[(Long, Long)], p: Int): RDD[(Long, Long, Int)] =
    edges.map { case (u, v) =>
      (u, v, Hashing.bucket(Hashing.mix64(u) ^ v, p, salt = 0xED6E1L))
    }

  /** Grid / 2D-hash: edge placed at (h(u) mod r, h(v) mod c). Falls back to
    * 1×p (vertex hash on v) when p is not a power of two — see Grid2D.
    */
  def grid(edges: RDD[(Long, Long)], p: Int): RDD[(Long, Long, Int)] = {
    val g = Grid2D.forPartitions(p)
    edges.map { case (u, v) => (u, v, g.cellOf(u, v)) }
  }

  /** Degree-Based Hashing (Xie et al. NIPS'14): hash the lower-degree
    * endpoint, so high-degree vertices are the ones that get cut.
    */
  def dbh(edges: RDD[(Long, Long)], p: Int): RDD[(Long, Long, Int)] =
    withDegrees(edges).map { case (u, v, du, dv) =>
      val pivot = if (du < dv || (du == dv && u < v)) u else v
      (u, v, Hashing.bucket(pivot, p, salt = 0xDB11L))
    }

  /** Edges annotated with both endpoint degrees, via two shuffles. */
  def withDegrees(edges: RDD[(Long, Long)]): RDD[(Long, Long, Int, Int)] = {
    val deg = degrees(edges)
    edges
      .map { case (u, v) => (u, v) }
      .join(deg)
      .map { case (u, (v, du)) => (v, (u, du)) }
      .join(deg)
      .map { case (v, ((u, du), dv)) => (u, v, du, dv) }
  }

  def degrees(edges: RDD[(Long, Long)]): RDD[(Long, Int)] =
    edges
      .flatMap { case (u, v) => Iterator((u, 1), (v, 1)) }
      .reduceByKey(_ + _)
}
