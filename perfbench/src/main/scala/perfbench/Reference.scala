package perfbench

import repro.graph.{Grid2D, Hashing}
import repro.theory.Bounds

/** Quality of one assignment, computed on the driver from the edge array. */
final case class Quality(rf: Double, eb: Double, replicas: Long, checksum: Long)

/** The input graph as sorted arrays, and the checks every partition call's
  * output must pass. Built once per run from the collected input edges.
  */
final class Reference(edges: Array[(Long, Long)], val numParts: Int, alpha: Double) {
  private val sorted = edges.clone()
  scala.util.Sorting.quickSort(sorted)(Ordering.Tuple2[Long, Long])
  private val us = sorted.map(_._1)
  private val vs = sorted.map(_._2)
  private val verts = {
    val xs = us ++ vs
    java.util.Arrays.sort(xs)
    xs.indices.collect { case i if i == 0 || xs(i) != xs(i - 1) => xs(i) }.toArray
  }
  require(sorted.indices.forall(i => i == 0 || sorted(i - 1) != sorted(i)),
    "input has duplicate edges")

  val numEdges: Int = sorted.length
  val numVertices: Int = verts.length
  def edgeArray: Array[(Long, Long)] = sorted

  /** Theorem 1: RF ≤ (|E| + |V| + |P|) / |V|. */
  val rfBound: Double = Bounds.theorem1(numEdges, numVertices, numParts)

  /** EB ≤ α + A·|P|/|E|: every one of the A grid cells may allocate up to
    * one edge past a partition's cap in its last iteration (the per-cell
    * quota overshoot DistributedNE documents).
    */
  val ebBound: Double =
    alpha + Grid2D.forPartitions(numParts).numCells.toDouble * numParts / numEdges

  private def edgeIndex(u: Long, v: Long): Int = {
    var lo = 0
    var hi = numEdges - 1
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      val c = if (us(mid) != u) java.lang.Long.compare(us(mid), u)
              else java.lang.Long.compare(vs(mid), v)
      if (c == 0) return mid
      if (c < 0) lo = mid + 1 else hi = mid - 1
    }
    -1
  }

  /** Checks one `DistributedNE.partition` output: every input edge is
    * assigned exactly once to a part in [0, P); the reported sizes sum to
    * |E| and equal the per-part counts; RF and EB are within their bounds.
    * @return the quality, or the first violation found
    */
  def check(triples: Array[(Long, Long, Int)], reportedEdges: Long,
            partitionSizes: Array[Long]): Either[String, Quality] = {
    if (reportedEdges != numEdges)
      return Left(s"numEdges $reportedEdges != |E| $numEdges")
    if (triples.length != numEdges)
      return Left(s"${triples.length} assignments for $numEdges edges")
    val parts = Array.fill(numEdges)(-1)
    var i = 0
    while (i < triples.length) {
      val (u, v, p) = triples(i)
      if (p < 0 || p >= numParts) return Left(s"part $p of edge ($u,$v) out of [0,$numParts)")
      val e = edgeIndex(u, v)
      if (e < 0) return Left(s"edge ($u,$v) is not an input edge")
      if (parts(e) >= 0) return Left(s"edge ($u,$v) assigned twice")
      parts(e) = p
      i += 1
    }
    val q = quality(parts)
    val counts = partCounts(parts)
    if (partitionSizes.length != numParts || partitionSizes.sum != numEdges)
      Left(s"partitionSizes ${partitionSizes.mkString(",")} do not sum to $numEdges")
    else if (!partitionSizes.sameElements(counts))
      Left(s"partitionSizes ${partitionSizes.mkString(",")} != counts ${counts.mkString(",")}")
    else if (q.rf > rfBound) Left(s"RF ${q.rf} above Theorem 1 bound $rfBound")
    else if (q.eb > ebBound) Left(s"EB ${q.eb} above α + A·P/|E| = $ebBound")
    else Right(q)
  }

  private def partCounts(parts: Array[Int]): Array[Long] = {
    val counts = new Array[Long](numParts)
    parts.foreach(p => counts(p) += 1)
    counts
  }

  /** RF, EB and a checksum of `parts`, which is aligned with the sorted
    * edge array.
    */
  def quality(parts: Array[Int]): Quality = {
    val keys = new Array[Long](2 * numEdges)
    var checksum = 0L
    var e = 0
    while (e < numEdges) {
      val p = parts(e).toLong
      keys(2 * e) = java.util.Arrays.binarySearch(verts, us(e)).toLong * numParts + p
      keys(2 * e + 1) = java.util.Arrays.binarySearch(verts, vs(e)).toLong * numParts + p
      checksum = Hashing.mix64(checksum ^ (e.toLong << 16 | p))
      e += 1
    }
    java.util.Arrays.sort(keys)
    var replicas = 0L
    var k = 0
    while (k < keys.length) {
      if (k == 0 || keys(k) != keys(k - 1)) replicas += 1
      k += 1
    }
    val counts = partCounts(parts)
    Quality(replicas.toDouble / numVertices, counts.max * numParts.toDouble / numEdges,
      replicas, checksum)
  }
}
