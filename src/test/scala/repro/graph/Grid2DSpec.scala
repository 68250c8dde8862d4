package repro.graph

import org.scalatest.funsuite.AnyFunSuite

class Grid2DSpec extends AnyFunSuite {

  test("forPartitions builds near-square grids for powers of two") {
    assert(Grid2D.forPartitions(1).numCells == 1)
    assert(Grid2D.forPartitions(4) == Grid2D(2, 2))
    assert(Grid2D.forPartitions(8) == Grid2D(2, 4))
    assert(Grid2D.forPartitions(64) == Grid2D(8, 8))
    assert(Grid2D.forPartitions(256) == Grid2D(16, 16))
  }

  test("forPartitions falls back to 1×p for non powers of two") {
    val g = Grid2D.forPartitions(6)
    assert(g.rows == 1 && g.cols == 6)
  }

  test("forPartitions rejects non-positive counts") {
    intercept[IllegalArgumentException](Grid2D.forPartitions(0))
  }

  test("cellOf is within range") {
    val g = Grid2D.forPartitions(16)
    for (u <- 0L until 200L; v <- Seq(u + 1, u + 17, u * 31 + 1)) {
      val c = g.cellOf(u, v)
      assert(c >= 0 && c < 16)
    }
  }

  test("replicaCells has rows+cols-1 entries, all distinct and in range") {
    for (p <- Seq(1, 4, 8, 16, 64)) {
      val g = Grid2D.forPartitions(p)
      for (x <- 0L until 100L) {
        val cells = g.replicaCells(x)
        assert(cells.length == g.rows + g.cols - 1)
        assert(cells.toSet.size == cells.length, s"duplicate replica cells for $x")
        cells.foreach(c => assert(c >= 0 && c < g.numCells))
      }
    }
  }

  test("KEY INVARIANT: every edge's cell is a replica cell of both endpoints") {
    // Any edge (u,v) lives in a cell that is in replicaCells(u) ∩
    // replicaCells(v), so every cell that holds a vertex is one of its
    // replica cells. This is why DistributedNE's sync, which hands every
    // cell the whole membership list and lets it skip the vertices it does
    // not hold, delivers each cell exactly its row ∪ column messages.
    for (p <- Seq(4, 8, 16, 64)) {
      val g = Grid2D.forPartitions(p)
      var u = 0L
      while (u < 80L) {
        var v = u + 1
        while (v < 80L) {
          val c = g.cellOf(u, v)
          assert(g.replicaCells(u).contains(c), s"cell $c of ($u,$v) not in replicas of $u (p=$p)")
          assert(g.replicaCells(v).contains(c), s"cell $c of ($u,$v) not in replicas of $v (p=$p)")
          v += 1
        }
        u += 1
      }
    }
  }

  test("grid cells are reasonably balanced for random edges") {
    val g = Grid2D.forPartitions(16)
    val counts = new Array[Int](16)
    var i = 0L
    while (i < 32000L) {
      val u = Hashing.mix64(i) & 0xFFFFF
      val v = Hashing.mix64(i + 1000000) & 0xFFFFF
      counts(g.cellOf(u, v)) += 1
      i += 1
    }
    counts.foreach(c => assert(c > 1000 && c < 3000, s"unbalanced grid cell: $c"))
  }
}
