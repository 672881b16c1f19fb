(** The per-node join accumulator behind every fairness number: it
    counts, per node index, the runs in which that node joined the MIS.
    {!Mis_stats.Montecarlo} fills one per chunk and merges them in chunk
    order; [Mis_stats.Empirical.of_fairness] turns one into join
    frequencies and the inequality factor. *)

type t

val create : n:int -> t
(** An empty accumulator over [n >= 0] nodes. *)

val n : t -> int
val runs : t -> int
val joins : t -> int array
(** Per-node join counts (a copy). *)

val record : t -> in_mis:bool array -> unit
(** Count one run from its membership mask (length [n]). *)

val merge : t -> t -> unit
(** [merge a b] folds [b]'s counts and runs into [a]. *)

(** {1 ASCII rendering} *)

val heatmap : ?width:int -> t -> string
(** One glyph (▁..█) per node, [width] (default 64) glyphs per row,
    scaled to the most-joining node; row labels give the first node
    index. At most 32 rows: past [32 * width] nodes, each glyph covers a
    range of consecutive nodes at the level of their mean, and the
    header says how many nodes a glyph covers. *)

val histogram : ?bins:int -> ?width:int -> t -> string
(** Histogram of the per-node join frequencies over [0, 1]: [bins]
    (default 10) equal bins rendered as [#] bars of at most [width]
    (default 40) characters. *)
