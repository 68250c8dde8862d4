package repro.bench

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import repro.graph.GraphGen

/** The dataset catalogue standing in for the paper's Table 2 graphs and the
  * Table 6 road networks (see DESIGN.md §4 for the substitution rationale).
  *
  * Each stand-in keeps the original's *shape*: skew (RMAT quadrant a),
  * density (edge factor ≈ scaled average degree), and structure (community
  * mix for the web graph, lattice for roads), at ~0.5–2 % linear scale so a
  * full table fits the single-node bench budget.
  */
object Datasets {

  final case class GraphSpec(name: String, paperName: String,
                             gen: SparkSession => RDD[(Long, Long)]) {
    def edges(spark: SparkSession): RDD[(Long, Long)] = gen(spark)
  }

  /** Skewed social/web graphs of Table 2 (order follows paper Table 5).
    *
    * Graphs whose paper-reported RF is low/medium (Flickr, LiveJ., Twitter,
    * FriendSter, WebUK) get community-structured RMAT mixes — that locality
    * is precisely what the originals have and what expansion-based methods
    * exploit; the two dense high-RF graphs (Pokec, Orkut) stay pure RMAT,
    * which at this scale already reproduces their paper-reported D.NE RF
    * (≈ 4.3 and ≈ 5.1–5.4).
    */
  val skewed: Seq[GraphSpec] = Seq(
    GraphSpec("flickr-like", "Flickr",
      s => GraphGen.communityGraph(s, nCommunities = 32, scalePerCommunity = 9,
        edgeFactor = 8, bridgesPerCommunity = 96, seed = 11)),
    GraphSpec("pokec-like", "Pokec",
      s => GraphGen.rmat(s, scale = 13, edgeFactor = 16, seed = 12, a = 0.57)),
    GraphSpec("livej-like", "LiveJ.",
      s => GraphGen.communityGraph(s, nCommunities = 24, scalePerCommunity = 9,
        edgeFactor = 12, bridgesPerCommunity = 384, seed = 13)),
    GraphSpec("orkut-like", "Orkut",
      s => GraphGen.rmat(s, scale = 13, edgeFactor = 32, seed = 14, a = 0.57)),
    GraphSpec("twitter-like", "Twitter",
      s => GraphGen.communityGraph(s, nCommunities = 16, scalePerCommunity = 10,
        edgeFactor = 16, bridgesPerCommunity = 1024, seed = 15)),
    GraphSpec("friendster-like", "FriendSter",
      s => GraphGen.communityGraph(s, nCommunities = 16, scalePerCommunity = 10,
        edgeFactor = 12, bridgesPerCommunity = 1536, seed = 16)),
    GraphSpec("webuk-like", "WebUK",
      s => GraphGen.communityGraph(s, nCommunities = 32, scalePerCommunity = 9,
        edgeFactor = 8, bridgesPerCommunity = 64, seed = 17)),
  )

  /** The Table 4 subset (middle-scale graphs). */
  val table4: Seq[GraphSpec] =
    Seq("pokec-like", "flickr-like", "livej-like", "orkut-like")
      .map(n => skewed.find(_.name == n).get)

  /** Road-network stand-ins for Table 6 (sized ∝ the SNAP originals). */
  val roads: Seq[GraphSpec] = Seq(
    GraphSpec("calif-like", "Calif.", s => GraphGen.roadLattice(s, 240, 240, seed = 21)),
    GraphSpec("penn-like", "Penn.", s => GraphGen.roadLattice(s, 180, 180, seed = 22)),
    GraphSpec("texas-like", "Tex.", s => GraphGen.roadLattice(s, 200, 200, seed = 23)),
  )
}
