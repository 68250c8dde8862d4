package repro.graph

/** 2-D (grid) hash placement, used both as the `Grid` baseline partitioner
  * and as Distributed NE's *initial distribution* of the input graph over
  * the allocation processes (§4 of the paper).
  *
  * The grid has `r × c` cells; edge (u,v) lands in cell
  * `(h(u) mod r, h(v) mod c)`. The replicas of a vertex `x` are therefore
  * confined to row `h(x) mod r` and column `h(x) mod c` — at most
  * `r + c − 1` cells — and, crucially, that replica set is *computable from
  * the vertex id alone*. This is the paper's space trick: no replica
  * directory needs to be stored for the trillion-edge case.
  */
final case class Grid2D(rows: Int, cols: Int) {
  require(rows >= 1 && cols >= 1, s"bad grid ${rows}x$cols")

  /** Number of grid cells (= allocation partitions). */
  val numCells: Int = rows * cols

  def rowOf(x: Long): Int = Hashing.bucket(x, rows, Grid2D.Salt)
  def colOf(x: Long): Int = Hashing.bucket(x, cols, Grid2D.Salt + 1)

  /** Cell owning edge (u, v). Not symmetric: (u, v) and (v, u) may land in
    * different cells. Either cell is in the row of one endpoint and the
    * column of the other, so it is a replica cell of both (see
    * [[replicaCells]]), and callers may pass a pair in either orientation.
    */
  def cellOf(u: Long, v: Long): Int = rowOf(u) * cols + colOf(v)

  /** All cells that may hold a replica of vertex `x`: its row ∪ its column.
    * Every edge incident to `x` lives in one of these cells.
    */
  def replicaCells(x: Long): Array[Int] = {
    val r = rowOf(x); val c = colOf(x)
    val out = new Array[Int](rows + cols - 1)
    var i = 0
    var j = 0
    while (j < cols) { out(i) = r * cols + j; i += 1; j += 1 }
    var k = 0
    while (k < rows) {
      if (k != r) { out(i) = k * cols + c; i += 1 }
      k += 1
    }
    out
  }
}

object Grid2D {
  private final val Salt = 0x5EEDL

  /** Near-square grid with exactly `p` cells when `p = 2^k` (all partition
    * counts used in the paper's tables are powers of two); otherwise falls
    * back to a 1×p grid (degenerates to 1-D hash placement).
    */
  def forPartitions(p: Int): Grid2D = {
    require(p >= 1, s"need at least one partition, got $p")
    if (Integer.bitCount(p) == 1) {
      val k = Integer.numberOfTrailingZeros(p)
      Grid2D(1 << (k / 2), 1 << (k - k / 2))
    } else Grid2D(1, p)
  }
}
