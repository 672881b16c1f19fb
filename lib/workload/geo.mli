(** Synthetic geographic point processes standing in for the paper's
    wireless-access-point location traces (Dartmouth CRAWDAD and NYC
    Wigle.NET — see DESIGN.md "Substitutions").

    Two features of wardriving datasets matter for the derived trees:

    - {b clustering}: APs concentrate in buildings/blocks (Matérn-style
      cluster process: uniform parents, Poisson cluster sizes, Gaussian
      offspring);
    - {b co-location}: one site (building, rooftop) hosts many APs whose
      recorded coordinates coincide after GPS rounding. Co-located points
      become zero-length threshold edges, and the minimum spanning tree
      connects them through high-degree hubs — exactly the degree profile
      that makes Luby's algorithm unfair on the paper's real-world trees. *)

type params = {
  clusters : int;  (** Number of cluster parents. *)
  mean_sites_per_cluster : float;  (** Poisson mean of sites per cluster. *)
  sigma : float;  (** Gaussian spread of sites around the parent. *)
  background : float;  (** Fraction of sites placed uniformly at random. *)
  site_mean : float;  (** Poisson mean of extra APs per site (>= 0). *)
  site_big_prob : float;  (** Probability that a site is a large facility. *)
  site_big_mean : float;  (** Poisson mean of extra APs at a large site. *)
  snap : float;  (** Coordinate grid quantum (GPS rounding); 0 = off. *)
  width : float;
  height : float;
}

val campus : params
(** Dartmouth-like: a handful of dense building clusters, moderate
    multi-AP sites. *)

val city : params
(** NYC-like: many clusters over a large extent, background noise, and
    occasional very large sites (office towers). *)

val sample : Mis_util.Splitmix.t -> params -> n:int -> Mis_graph.Geometry.point array
(** Exactly [n] AP positions. *)

val poisson : Mis_util.Splitmix.t -> mean:float -> int
(** Knuth's Poisson sampler (exposed for tests). *)

val gaussian : Mis_util.Splitmix.t -> float
(** Standard normal via Box–Muller: the cluster spread {!sample} draws;
    exposed so tests can check its moments. *)
