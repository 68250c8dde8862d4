package repro.graph

/** One set of partition ids `0 until numPartitions` per local vertex: the
  * per-vertex allocation sets every edge partitioner here keeps (D.NE's
  * replicated memberships, NE's and SNE's V(E_p), HDRF's and Oblivious'
  * A(v)) and the GAS engine's replica sets.
  *
  * ⌈numPartitions/64⌉ bitset `words` per vertex in one `Array[Long]`:
  * partition `p` of vertex `lv` is bit `p % 64` of word `p / 64` of `lv`.
  * One primitive array, so Spark's size estimator walks it in one step.
  */
final class PartitionSets private (val words: Int, bits: Array[Long]) extends Serializable {

  def contains(lv: Int, p: Int): Boolean = (word(lv, p >>> 6) & (1L << (p & 63))) != 0

  /** Adds `p` to the set of `lv`; true iff it was not there yet. */
  def add(lv: Int, p: Int): Boolean = {
    val i = lv * words + (p >>> 6)
    val old = bits(i)
    bits(i) = old | (1L << (p & 63))
    bits(i) != old
  }

  /** Removes `p` from the set of `lv`. */
  def remove(lv: Int, p: Int): Unit = bits(lv * words + (p >>> 6)) &= ~(1L << (p & 63))

  /** Word `w` of the set of `lv`: its partitions in `[64·w, 64·w + 64)`. */
  def word(lv: Int, w: Int): Long = bits(lv * words + w)

  /** Applies `f` to each partition of `lv`, ascending. */
  def foreach(lv: Int)(f: Int => Unit): Unit = {
    var w = 0
    while (w < words) {
      var b = word(lv, w)
      while (b != 0) { f((w << 6) + java.lang.Long.numberOfTrailingZeros(b)); b &= b - 1 }
      w += 1
    }
  }

  /** The partitions of `lv`, ascending. */
  def toArray(lv: Int): Array[Int] = {
    val out = Array.newBuilder[Int]
    foreach(lv)(out += _)
    out.result()
  }

  def clear(lv: Int): Unit = java.util.Arrays.fill(bits, lv * words, (lv + 1) * words, 0L)

  def copy(): PartitionSets = new PartitionSets(words, bits.clone())

  /** A copy with room for `numVertices` vertices; the sets of vertices past
    * this one's end are empty.
    */
  def resized(numVertices: Int): PartitionSets =
    new PartitionSets(words, java.util.Arrays.copyOf(bits, Math.multiplyExact(numVertices, words)))
}

object PartitionSets {
  def apply(numVertices: Int, numPartitions: Int): PartitionSets = {
    val words = (numPartitions + 63) >>> 6
    new PartitionSets(words, new Array[Long](Math.multiplyExact(numVertices, words)))
  }
}
