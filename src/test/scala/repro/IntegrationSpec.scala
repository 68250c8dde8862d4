package repro

import repro.apps.GasEngine
import repro.bench.{Datasets, Runners, Table4, Table5, Table6, TextTable}
import repro.core.DistributedNE.CellSlots
import repro.graph.{GraphGen, LocalMetrics}

import scala.util.hashing.MurmurHash3

/** End-to-end pipeline tests: generate → partition (every method in the
  * paper's tables) → measure → run applications, on a small RMAT graph.
  * This is the same path the table benches take, at unit-test scale.
  */
class IntegrationSpec extends SparkSpec {

  private lazy val edges: Array[(Long, Long)] =
    GraphGen.rmat(spark, scale = 10, edgeFactor = 8, seed = 77).collect().sorted
  private lazy val rdd = spark.sparkContext.parallelize(edges.toSeq, 8).cache()

  // MurmurHash3 of the sorted (u, v, part) triples at p = 8. Pins each
  // partitioner's exact output, so a refactor that changes any assignment
  // fails here.
  private val expectedChecksum = Map(
    "Rand." -> -403999764, "2D-R." -> 1291865056, "DBH" -> 2036926616,
    "Obli." -> 348705745, "H.G." -> 112381244, "HDRF" -> 1017660526,
    "NE" -> -1924690817, "SNE" -> -1998482089, "Sheep" -> -254704891,
    "P.M." -> 515623961, "X.P." -> -1437808481, "Spinner" -> -1626491157,
    "D.NE" -> 630424108)

  private def checksumOf(r: Runners.RunResult): Int =
    MurmurHash3.seqHash(r.edges.indices.map(i => (r.edges(i)._1, r.edges(i)._2, r.assign(i))).sorted)

  for (method <- Runners.methods) {
    test(s"pipeline[$method]: total, in-range, measurable assignment") {
      val r = Runners.run(method, spark, rdd, edges, p = 8)
      assert(r.assign.length == edges.length, s"$method dropped edges")
      r.assign.foreach(x => assert(x >= 0 && x < 8))
      assert(r.rf >= 1.0 && r.rf <= 8.0)
      assert(r.eb >= 1.0 && r.vb >= 1.0)
      assert(r.seconds >= 0.0)
      val checksum = checksumOf(r)
      assert(checksum == expectedChecksum(method), s"$method output changed: checksum $checksum")
    }
  }

  test("D.NE output does not depend on how the input is sliced") {
    for (slices <- Seq(1, 3, 8, 17)) {
      val in = spark.sparkContext.parallelize(edges.toSeq, slices)
      val checksum = checksumOf(Runners.run("D.NE", spark, in, edges, p = 8))
      assert(checksum == expectedChecksum("D.NE"), s"$slices slices: checksum $checksum")
    }
  }

  test("quality ordering across the board: D.NE beats every hash/stream method") {
    val dne = Runners.run("D.NE", spark, rdd, edges, 8).rf
    for (m <- Seq("Rand.", "2D-R.", "DBH", "Obli.", "HDRF")) {
      val rf = Runners.run(m, spark, rdd, edges, 8).rf
      assert(dne < rf, s"D.NE RF $dne should beat $m RF $rf on a skewed graph")
    }
  }

  test("offline NE is the quality ceiling among our greedy family") {
    val ne = Runners.run("NE", spark, rdd, edges, 8).rf
    val dne = Runners.run("D.NE", spark, rdd, edges, 8).rf
    val sne = Runners.run("SNE", spark, rdd, edges, 8).rf
    assert(ne <= dne + 0.2, s"NE ($ne) should be at least about as good as D.NE ($dne)")
    assert(ne <= sne + 0.2, s"NE ($ne) should be at least about as good as SNE ($sne)")
  }

  test("applications give identical results on every partitioning") {
    val src = edges.flatMap(e => Seq(e._1, e._2)).min
    val reference = TestGraphs.bfsDistances(edges, src)
    for (m <- Seq("Rand.", "D.NE", "NE")) {
      val r = Runners.run(m, spark, rdd, edges, 8)
      val engine = new GasEngine(r.edges, r.assign, 8)
      val (dist, _) = engine.sssp(src)
      (0 until engine.graph.numVertices).foreach { lv =>
        val v = engine.graph.vertexIds(lv)
        assert(dist(lv) == reference.getOrElse(v, Long.MaxValue),
          s"$m changed SSSP result at vertex $v")
      }
    }
  }

  test("lower RF implies lower PageRank communication (the paper's causal chain)") {
    val byRf = Seq("Rand.", "2D-R.", "D.NE").map { m =>
      val r = Runners.run(m, spark, rdd, edges, 8)
      val com = new GasEngine(r.edges, r.assign, 8).pageRank(3)._2.comBytes
      (r.rf, com)
    }.sortBy(_._1)
    byRf.sliding(2).foreach {
      case Seq((rf1, com1), (rf2, com2)) =>
        assert(com1 <= com2, s"RF $rf1 → COM $com1 but RF $rf2 → COM $com2")
      case _ =>
    }
  }

  test("dataset catalogue generates all advertised graphs deterministically") {
    for (spec <- Datasets.roads) {
      val a = spec.edges(spark).count()
      val b = spec.edges(spark).count()
      assert(a == b && a > 0, s"${spec.name} not deterministic or empty")
    }
  }

  test("catalogue names are unique and resolvable") {
    val names = (Datasets.skewed ++ Datasets.roads).map(_.name)
    assert(names.distinct.length == names.length)
    assert(Datasets.table4.map(_.name).forall(names.contains))
  }

  test("Runners rejects unknown methods") {
    intercept[IllegalArgumentException](
      Runners.run("nope", spark, rdd, edges, 4))
  }

  test("TableJob rejects an unknown table number and lists the known ones") {
    // thrown before the job creates (and at the end stops) a SparkSession
    val e = intercept[IllegalArgumentException](repro.jobs.TableJob.main(Array("2")))
    assert(e.getMessage.contains("known: 1, 4, 5, 6"), e.getMessage)
  }

  test("every table bench names only methods Runners knows") {
    for (m <- Table4.methods ++ Table5.methods ++ Table6.methods)
      assert(Runners.methods.contains(m), s"unknown method $m in a table")
    assert(Runners.methods.toSet == expectedChecksum.keySet)
  }

  test("CellSlots routes cell ids to contiguous, non-empty slot ranges") {
    // DistributedNE keys its per-cell RDDs by cell id in [0, numCells)
    for (cells <- Seq(1, 7, 16, 64); slots <- 1 to cells) {
      val cs = CellSlots(cells, slots)
      val slotOf = (0 until cells).map(cs.getPartition)
      assert(slotOf == slotOf.sorted, s"$cells cells, $slots slots: ranges out of order")
      assert(slotOf.toSet == (0 until slots).toSet, s"$cells cells, $slots slots: an empty slot")
      for (s <- 0 until slots)
        assert(cs.cellsOf(s) == (0 until cells).filter(slotOf(_) == s), s"$cells cells, slot $s")
    }
    (0 until 16).foreach(i => assert(CellSlots(16, 16).getPartition(i) == i))
    assert(CellSlots(16, 4) == CellSlots(16, 4))
    assert(CellSlots(16, 4) != CellSlots(16, 8))
    assert(CellSlots(8, 4) != CellSlots(16, 4)) // the cell count is part of the routing
    intercept[IllegalArgumentException](CellSlots(4, 5))
  }

  test("TextTable renders aligned rows and formats doubles") {
    val out = TextTable.render("T", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("33", "4")))
    assert(out.contains("== T =="))
    assert(out.linesIterator.size == 5)
    assert(TextTable.f(1.23456) == "1.23")
    assert(TextTable.f(1.23456, 3) == "1.235")
  }
}
