package repro.graph

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession

/** Synthetic graph generators standing in for the paper's datasets.
  *
  * The paper evaluates on 30 M – 3.7 B-edge public graphs (Table 2), RMAT
  * graphs up to Scale30/EF1024 (the simulated trillion-edge graph), and
  * three SNAP road networks (Table 6). None of those fit this sealed
  * single-node environment, so every dataset is substituted by a generator
  * with the same *shape knobs*: skew (RMAT a/b/c/d or power-law α),
  * density (edge factor), and structure (lattice for road networks,
  * community mix for web graphs). See DESIGN.md §4.
  *
  * All generators are deterministic in their seed, return *canonical
  * undirected* edges (u < v, no self-loops, deduplicated), and are produced
  * distributed (one task per slice) so SF-style scaling is a parameter, not
  * a rewrite.
  */
object GraphGen {
  import Hashing._

  /** Canonicalize a raw directed pair RDD: drop self-loops, order endpoints,
    * deduplicate. This mirrors the paper's preprocessing ("it compacts the
    * duplicated edges, which have the same sources and destinations").
    */
  def canonicalize(raw: RDD[(Long, Long)]): RDD[(Long, Long)] =
    raw
      .filter { case (u, v) => u != v }
      .map { case (u, v) => if (u < v) (u, v) else (v, u) }
      .distinct()

  /** RMAT generator (Chakrabarti et al.), the paper's synthetic workload.
    *
    * @param scale      log2 of the vertex-id space (ScaleN in the paper)
    * @param edgeFactor average directed edges per vertex before dedup
    * @param a,b,c,d    quadrant probabilities (Graph500 default .57/.19/.19/.05)
    */
  def rmat(spark: SparkSession, scale: Int, edgeFactor: Int, seed: Long,
           a: Double = 0.57, b: Double = 0.19, c: Double = 0.19,
           numSlices: Int = 0): RDD[(Long, Long)] = {
    require(scale >= 1 && scale <= 40, s"scale out of range: $scale")
    val d = 1.0 - a - b - c
    require(d >= 0, s"quadrant probabilities exceed 1: a=$a b=$b c=$c")
    val nEdges = (1L << scale) * edgeFactor
    val slices = if (numSlices > 0) numSlices else spark.sparkContext.defaultParallelism
    val raw = spark.sparkContext
      .range(0L, nEdges, numSlices = slices)
      .map { i =>
        var state = seedAt(seed, i)
        var u = 0L; var v = 0L
        var level = 0
        while (level < scale) {
          state = mix64(state)
          val r = toUnitDouble(state)
          // Quadrant choice with mild per-level noise (standard RMAT trick
          // to avoid exact self-similarity artifacts is omitted: we want
          // strict determinism and the skew itself, not realism).
          val (du, dv) =
            if (r < a) (0L, 0L)
            else if (r < a + b) (0L, 1L)
            else if (r < a + b + c) (1L, 0L)
            else (1L, 1L)
          u = (u << 1) | du
          v = (v << 1) | dv
          level += 1
        }
        (u, v)
      }
    canonicalize(raw)
  }

  /** Power-law (Chung–Lu style) generator: both endpoints drawn from a
    * zipf-like rank distribution Pr[rank i] ∝ i^(−β) with β = 1/(α−1),
    * which yields a degree distribution with tail exponent ≈ α. Used for
    * the Table 1 Monte-Carlo cross-check and skewed stand-in graphs.
    */
  def powerLaw(spark: SparkSession, nVertices: Long, nEdges: Long,
               alpha: Double, seed: Long, numSlices: Int = 0): RDD[(Long, Long)] = {
    require(alpha > 2.0, s"alpha must be > 2 for a finite mean, got $alpha")
    val beta = 1.0 / (alpha - 1.0) // rank exponent, in (0,1)
    val n = nVertices.toDouble
    val norm = math.pow(n, 1.0 - beta) - 1.0
    val slices = if (numSlices > 0) numSlices else spark.sparkContext.defaultParallelism
    def draw(state: Long): Long = {
      val r = toUnitDouble(state)
      // inverse CDF of the continuous relaxation of i^(−β) on [1, n]
      val x = math.pow(r * norm + 1.0, 1.0 / (1.0 - beta))
      math.min(nVertices - 1, math.max(0L, x.toLong - 1))
    }
    val raw = spark.sparkContext
      .range(0L, nEdges, numSlices = slices)
      .map { i =>
        val s = seedAt(seed, i)
        (draw(mix64(s)), draw(mix64(s + 1)))
      }
    canonicalize(raw)
  }

  /** Road-network stand-in: a rows×cols 2-D lattice with a small fraction of
    * perturbation edges (shortcuts), giving mean degree ≈ 2.8–4 — the same
    * regime as the SNAP road networks in Table 6 (non-skewed, huge
    * diameter).
    */
  def roadLattice(spark: SparkSession, rows: Int, cols: Int, seed: Long,
                  shortcutFraction: Double = 0.02): RDD[(Long, Long)] = {
    require(rows >= 2 && cols >= 2, s"lattice too small: ${rows}x$cols")
    val n = rows.toLong * cols
    def id(r: Int, c: Int): Long = r.toLong * cols + c
    val grid = spark.sparkContext
      .range(0L, n, numSlices = spark.sparkContext.defaultParallelism)
      .flatMap { i =>
        val r = (i / cols).toInt; val c = (i % cols).toInt
        val right = if (c + 1 < cols) Some((id(r, c), id(r, c + 1))) else None
        val down  = if (r + 1 < rows) Some((id(r, c), id(r + 1, c))) else None
        right ++ down
      }
    val nShortcuts = (n * shortcutFraction).toLong
    val shortcuts = spark.sparkContext
      .range(0L, nShortcuts)
      .map { i =>
        val s = seedAt(seed, i)
        val u = java.lang.Long.remainderUnsigned(mix64(s), n)
        // local shortcut: jump within a small window, as in real roads
        val dRaw = java.lang.Long.remainderUnsigned(mix64(s + 1), (4L * cols))
        val v = math.min(n - 1, u + 1 + dRaw)
        (u, v)
      }
    canonicalize(grid union shortcuts)
  }

  /** Community-structured stand-in for web graphs (WebUK-like): K dense
    * RMAT communities joined by sparse bridges. High-quality partitioners
    * reach RF ≈ 1.1–1.5 here, as the paper reports for WebUK.
    */
  def communityGraph(spark: SparkSession, nCommunities: Int, scalePerCommunity: Int,
                     edgeFactor: Int, bridgesPerCommunity: Int, seed: Long): RDD[(Long, Long)] = {
    require(nCommunities >= 1, "need at least one community")
    val commSize = 1L << scalePerCommunity
    val parts = (0 until nCommunities).map { k =>
      rmat(spark, scalePerCommunity, edgeFactor, seed = seed + k, numSlices = 2)
        .map { case (u, v) => (u + k * commSize, v + k * commSize) }
    }
    val n = nCommunities * commSize
    val bridges = spark.sparkContext
      .range(0L, nCommunities.toLong * bridgesPerCommunity)
      .map { i =>
        val s = seedAt(seed * 31 + 7, i)
        (java.lang.Long.remainderUnsigned(mix64(s), n),
         java.lang.Long.remainderUnsigned(mix64(s + 1), n))
      }
    canonicalize(spark.sparkContext.union((parts :+ bridges).toSeq))
  }
}
