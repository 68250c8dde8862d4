package repro.bench

import org.apache.spark.sql.SparkSession
import repro.apps.GasEngine

/** Table 5 — effect of the partitioning on distributed graph applications
  * (SSSP, WCC, PageRank) over the 7 skewed graphs, |P| = 64.
  *
  * Layout follows the paper: a quality block (RF / EB / VB) per method,
  * then one block per application with ET / COM / WB. ET is modeled from
  * the engine's exact counters (DESIGN.md §5), COM is counted bytes
  * (reported in MB at this scale; the paper reports GB at 1000× scale), WB
  * is the counted work balance. Paper-side numbers are tabulated in
  * EXPERIMENTS.md next to these.
  */
object Table5 {

  val P = 64
  val methods = Seq("Rand.", "2D-R.", "Obli.", "H.G.", "D.NE")
  val prIterations = 30 // paper runs 100; linear in iterations (see EXPERIMENTS.md)

  final case class AppRow(et: Double, comMB: Double, wb: Double)
  final case class Cell(rf: Double, eb: Double, vb: Double,
                        sssp: AppRow, wcc: AppRow, pr: AppRow)

  def compute(spark: SparkSession): Seq[(String, Seq[(String, Cell)])] =
    Datasets.skewed.map { spec =>
      val results = Runners.runAll(spark, spec, methods, P)
      val source = results.head.edges.iterator.flatMap(e => Iterator(e._1, e._2)).min
      val perMethod = results.map { r =>
        val engine = new GasEngine(r.edges, r.assign, P)
        val (_, sp) = engine.sssp(source)
        val (_, wc) = engine.wcc()
        val (_, pr) = engine.pageRank(prIterations)
        def row(s: GasEngine.Stats) = AppRow(s.elapsedSeconds, s.comBytes / 1e6, s.workBalance)
        r.method -> Cell(r.rf, r.eb, r.vb, row(sp), row(wc), row(pr))
      }
      spec.paperName -> perMethod
    }

  def render(data: Seq[(String, Seq[(String, Cell)])]): String = {
    import TextTable.f
    val graphs = data.map(_._1)
    val header = "Block / Method" +: graphs.flatMap(g => Seq(s"$g", "", ""))
    val subHeader = "" +: graphs.flatMap(_ => Seq("RF/ET", "EB/COM", "VB/WB"))

    def qualityRows: Seq[Seq[String]] = methods.map { m =>
      m +: data.flatMap { case (_, cells) =>
        val c = cells.find(_._1 == m).get._2
        Seq(f(c.rf, 1), f(c.eb, 1), f(c.vb, 1))
      }
    }
    def appRows(app: String, get: Cell => AppRow): Seq[Seq[String]] = methods.map { m =>
      m +: data.flatMap { case (_, cells) =>
        val a = get(cells.find(_._1 == m).get._2)
        Seq(f(a.et, 3), f(a.comMB, 1), f(a.wb, 2))
      }
    }

    val rows =
      (Seq("Quality" +: header.tail.map(_ => ""), subHeader) ++ qualityRows) ++
      (Seq(s"SSSP (ET modeled s / COM MB / WB)" +: header.tail.map(_ => "")) ++ appRows("SSSP", _.sssp)) ++
      (Seq(s"WCC" +: header.tail.map(_ => "")) ++ appRows("WCC", _.wcc)) ++
      (Seq(s"PageRank ($prIterations iters)" +: header.tail.map(_ => "")) ++ appRows("PR", _.pr))

    TextTable.render(
      s"Table 5: graph applications on |P|=$P (-like stand-in graphs; COM in MB)",
      header, rows)
  }

  def run(spark: SparkSession): String = render(compute(spark))
}
