package repro.apps

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

class GasEngineSpec extends AnyFunSuite {

  private def engineOf(edges: Array[(Long, Long)], p: Int, seed: Long = 3L) =
    new GasEngine(edges, TestGraphs.randomAssign(edges, p, seed), p)

  private val skewed = TestGraphs.skewed(300, 1500)

  // ---- structure ----

  test("replicas include exactly the partitions holding incident edges") {
    val edges = TestGraphs.twoTriangles
    val assign = Array(0, 0, 0, 1, 1, 1, 0) // bridge (2,3) on partition 0
    val e = new GasEngine(edges, assign, 2)
    def reps(x: Long) = e.replicaParts(e.graph.localId(x)).toSeq
    assert(reps(0L) == Seq(0))
    assert(reps(3L) == Seq(0, 1)) // bridge replicates vertex 3
    assert(reps(5L) == Seq(1))
  }

  test("master is always one of the replicas") {
    val e = engineOf(skewed, 8)
    (0 until e.graph.numVertices).foreach { lv =>
      assert(e.replicaParts(lv).contains(e.master(lv)))
    }
  }

  test("edge and replica tallies are consistent") {
    val e = engineOf(skewed, 8)
    assert(e.edgesPerPart.sum == skewed.length)
    assert(e.replicasPerPart.sum == e.replicaParts.map(_.length.toLong).sum)
    assert(e.totalMirrors == e.replicaParts.map(_.length.toLong - 1).sum)
  }

  test("engine rejects bad assignments") {
    intercept[IllegalArgumentException](new GasEngine(TestGraphs.k4, Array.fill(6)(9), 4))
    intercept[IllegalArgumentException](new GasEngine(TestGraphs.k4, Array.fill(5)(0), 4))
  }

  // ---- more than 64 partitions ----

  for (p <- Seq(100, 256)) {
    test(s"P = $p: replicas, SSSP, WCC and PageRank COM agree with the references") {
      val e = engineOf(skewed, p)
      val assign = TestGraphs.randomAssign(skewed, p)
      val expected = Array.fill(e.graph.numVertices)(Set.empty[Int])
      skewed.indices.foreach { i =>
        expected(e.graph.localId(skewed(i)._1)) += assign(i)
        expected(e.graph.localId(skewed(i)._2)) += assign(i)
      }
      assert(expected.exists(_.exists(_ >= 64)), "some replica must sit past the first word")
      (0 until e.graph.numVertices).foreach { lv =>
        assert(e.replicaParts(lv).toSeq == expected(lv).toSeq.sorted)
      }
      val src = skewed.flatMap(x => Seq(x._1, x._2)).min
      val bfs = TestGraphs.bfsDistances(skewed, src)
      val dist = e.sssp(src)._1
      val comp = TestGraphs.componentsByMinId(skewed)
      val labels = e.wcc()._1
      (0 until e.graph.numVertices).foreach { lv =>
        val v = e.graph.vertexIds(lv)
        assert(dist(lv) == bfs.getOrElse(v, Long.MaxValue), s"distance of $v")
        assert(labels(lv) == comp(v), s"component of $v")
      }
      assert(e.pageRank(7)._2.comBytes == 2L * 16L * e.totalMirrors * 7)
    }
  }

  // ---- exact counters ----

  test("SSSP, WCC and PageRank stats at P = 64 are pinned") {
    // exact counters of one fixed run: a change to how the engine counts
    // work, traffic or supersteps shows up here
    val e = engineOf(skewed, 64)
    val src = skewed.flatMap(x => Seq(x._1, x._2)).min
    def pin(s: GasEngine.Stats, supersteps: Int, comBytes: Long, elapsed: Double, work: String): Unit = {
      assert(s.supersteps == supersteps, s.app)
      assert(s.comBytes == comBytes, s.app)
      assert(s.elapsedSeconds == elapsed, s.app)
      assert(s.workPerPart.mkString(", ") == work, s.app)
    }
    pin(e.sssp(src)._2, 4, 49088L, 0.020050908000000003,
      "42, 63, 53, 37, 59, 26, 36, 55, 38, 58, 62, 59, 35, 60, 71, 46, 46, 62, 44, 62, 43, 39, " +
      "40, 33, 53, 37, 37, 56, 80, 70, 56, 67, 53, 66, 61, 48, 40, 50, 47, 40, 45, 47, 53, 48, " +
      "61, 38, 62, 62, 52, 32, 71, 60, 51, 52, 37, 60, 58, 60, 54, 51, 42, 54, 72, 47")
    pin(e.wcc()._2, 4, 102608L, 0.020106648,
      "116, 157, 133, 92, 151, 64, 98, 137, 92, 155, 170, 148, 88, 162, 185, 120, 108, 162, " +
      "112, 159, 114, 100, 103, 88, 126, 99, 92, 141, 192, 172, 139, 170, 143, 175, 150, 122, " +
      "101, 134, 119, 103, 112, 127, 131, 118, 154, 98, 166, 147, 133, 79, 185, 157, 133, 132, " +
      "96, 159, 143, 155, 135, 128, 112, 135, 177, 119")
    pin(e.pageRank(5)._2, 5, 389280L, 0.02540218,
      "380, 515, 445, 310, 500, 230, 335, 460, 335, 520, 530, 535, 335, 520, 620, 405, 385, " +
      "520, 360, 580, 380, 345, 355, 275, 445, 305, 335, 465, 640, 565, 460, 570, 460, 560, " +
      "520, 415, 350, 465, 415, 370, 385, 410, 485, 415, 530, 345, 570, 545, 455, 275, 645, " +
      "540, 440, 440, 340, 540, 500, 520, 465, 435, 355, 470, 625, 420")
  }

  // ---- SSSP ----

  test("sssp equals BFS distances on the skewed graph") {
    val e = engineOf(skewed, 8)
    val src = skewed.flatMap(x => Seq(x._1, x._2)).min
    val (dist, stats) = e.sssp(src)
    val ref = TestGraphs.bfsDistances(skewed, src)
    (0 until e.graph.numVertices).foreach { lv =>
      val v = e.graph.vertexIds(lv)
      val expected = ref.getOrElse(v, Long.MaxValue)
      assert(dist(lv) == expected, s"distance of $v: ${dist(lv)} vs BFS $expected")
    }
    assert(stats.supersteps >= 1 && stats.comBytes >= 0)
  }

  test("sssp distances are invariant under the partitioning") {
    val src = skewed.flatMap(x => Seq(x._1, x._2)).min
    val e1 = engineOf(skewed, 4, seed = 1)
    val e2 = engineOf(skewed, 8, seed = 2)
    val d1 = e1.sssp(src)._1.zipWithIndex.map { case (d, lv) => e1.graph.vertexIds(lv) -> d }.toMap
    val d2 = e2.sssp(src)._1.zipWithIndex.map { case (d, lv) => e2.graph.vertexIds(lv) -> d }.toMap
    assert(d1 == d2, "partitioning must not change the algorithm's result")
  }

  test("sssp on a path takes diameter+1 supersteps (final barren round)") {
    val edges = TestGraphs.path(10)
    val e = new GasEngine(edges, TestGraphs.randomAssign(edges, 2), 2)
    val (_, stats) = e.sssp(0L)
    assert(stats.supersteps == 11)
  }

  test("sssp rejects an unknown source") {
    intercept[IllegalArgumentException](engineOf(TestGraphs.k4, 2).sssp(99L))
  }

  // ---- WCC ----

  test("wcc equals union-find components") {
    val e = engineOf(skewed, 8)
    val (labels, _) = e.wcc()
    val ref = TestGraphs.componentsByMinId(skewed)
    (0 until e.graph.numVertices).foreach { lv =>
      val v = e.graph.vertexIds(lv)
      assert(labels(lv) == ref(v), s"component of $v: ${labels(lv)} vs ${ref(v)}")
    }
  }

  test("wcc on two triangles finds two components") {
    val e = new GasEngine(TestGraphs.twoTriangles.take(6),
      TestGraphs.randomAssign(TestGraphs.twoTriangles.take(6), 2), 2)
    val (labels, _) = e.wcc()
    assert(labels.distinct.sorted.toSeq == Seq(0L, 3L))
  }

  // ---- PageRank ----

  test("pagerank matches the reference power iteration") {
    val e = engineOf(skewed, 8)
    val (ranks, _) = e.pageRank(iterations = 15)
    val ref = TestGraphs.pageRankReference(skewed, iterations = 15)
    (0 until e.graph.numVertices).foreach { lv =>
      val v = e.graph.vertexIds(lv)
      assert(math.abs(ranks(lv) - ref(v)) < 1e-8, s"rank of $v: ${ranks(lv)} vs ${ref(v)}")
    }
  }

  test("pagerank ranks sum to ~1") {
    val e = engineOf(skewed, 4)
    val (ranks, _) = e.pageRank(10)
    assert(math.abs(ranks.sum - 1.0) < 1e-6)
  }

  test("pagerank COM is exactly 2 · 16B · mirrors · iterations") {
    val e = engineOf(skewed, 8)
    val (_, stats) = e.pageRank(7)
    assert(stats.comBytes == 2L * 16L * e.totalMirrors * 7)
  }

  test("pagerank ET grows linearly with iterations") {
    val e = engineOf(skewed, 8)
    val t1 = e.pageRank(5)._2.elapsedSeconds
    val t2 = e.pageRank(10)._2.elapsedSeconds
    assert(math.abs(t2 - 2 * t1) < 1e-9)
  }

  // ---- cost accounting across partitionings ----

  test("a lower-RF partitioning produces less PR communication") {
    val p = 8
    val good = repro.core.SequentialNE.partition(skewed, repro.core.SequentialNE.Config(p))
    val bad = TestGraphs.randomAssign(skewed, p)
    val eGood = new GasEngine(skewed, good, p)
    val eBad = new GasEngine(skewed, bad, p)
    assert(eGood.totalMirrors < eBad.totalMirrors,
      "NE partitioning must produce fewer mirrors than random")
    val comGood = eGood.pageRank(5)._2.comBytes
    val comBad = eBad.pageRank(5)._2.comBytes
    assert(comGood < comBad)
  }

  test("work balance is >= 1 for all apps") {
    val e = engineOf(skewed, 8)
    val src = skewed.flatMap(x => Seq(x._1, x._2)).min
    assert(e.sssp(src)._2.workBalance >= 1.0)
    assert(e.wcc()._2.workBalance >= 1.0)
    assert(e.pageRank(3)._2.workBalance >= 1.0)
  }

  test("single-partition run needs zero communication") {
    val assign = Array.fill(skewed.length)(0)
    val e = new GasEngine(skewed, assign, 1)
    assert(e.totalMirrors == 0)
    assert(e.pageRank(3)._2.comBytes == 0)
    val src = skewed.flatMap(x => Seq(x._1, x._2)).min
    assert(e.sssp(src)._2.comBytes == 0)
    assert(e.wcc()._2.comBytes == 0)
  }

  test("cost model composes its three terms") {
    val cm = CostModel(secondsPerEdge = 1.0, secondsPerByte = 2.0, secondsPerSuperstep = 3.0)
    assert(cm.superstepSeconds(5, 7) == 5 * 1.0 + 7 * 2.0 + 3.0)
  }
}
