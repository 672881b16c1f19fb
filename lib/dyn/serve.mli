(** The resilient serve loop: consume a JSONL stream of topology events
    ({!Event}) from a channel, batch them, and drive a {!Maintain.t},
    skipping (and counting) malformed lines with their position — the
    long-running half of [fairmis_cli serve].

    Batching: events accumulate until either [batch_size] events are
    pending or a [{"type":"batch"}] flush marker arrives; a marker
    flushes even an empty batch (a quiet period still counts), and
    end-of-stream flushes any tail. Errors on a line never abort the
    loop — the event is skipped, counted into [dyn.events.malformed]
    (when the maintainer carries a metrics registry) and reported
    through [log] as ["FILE:LINE: skipping malformed event: ..."].

    Wire: lines come from {!Mis_obs.Line_reader}, so a line longer than
    {!Mis_obs.Line_reader.max_line_bytes} is one malformed line, not an
    unbounded buffer, and {!Event.decode} turns each line into an event,
    a flush marker or a blank without building a JSON tree.

    Repair latency streams into a bounded {!Mis_obs.Sketch} instead of a
    grow-only array: percentiles come from {!Mis_obs.Sketch.quantile}
    (the single online implementation; the exact offline companion is
    {!Mis_obs.Sketch.nearest_rank}), and memory stays constant however
    long the loop runs. *)

type stats = {
  batches : int;
  lines : int;  (** Lines read, including blank and malformed ones. *)
  events : int;  (** Well-formed events handed to the maintainer. *)
  applied : int;
  skipped : int;  (** Inapplicable events (see {!Maintain.report}). *)
  malformed : int;  (** Unparseable lines skipped. *)
  escalations : int;  (** Batches healed after a failed check. *)
  full_recomputes : int;
  max_region : int;  (** Largest per-batch region the program re-ran on. *)
  flips : int;  (** Total membership changes. *)
  latency : Mis_obs.Sketch.t;
      (** Per-batch repair latency (seconds) — query with
          {!Mis_obs.Sketch.quantile}. When the maintainer carries a
          metrics registry this is the registry's
          ["dyn.repair.latency_seconds"] sketch. *)
}

val run :
  ?batch_size:int ->
  ?max_batches:int ->
  ?file:string ->
  ?log:(string -> unit) ->
  ?on_batch:(Maintain.report -> unit) ->
  ?telemetry:Mis_obs.Telemetry.t ->
  Maintain.t ->
  in_channel ->
  stats
(** [run maintainer ic] reads until end-of-stream (or [max_batches]
    applied batches). [batch_size] defaults to 64; [file] names the
    input in malformed-line positions; [log] defaults to stderr;
    [on_batch] observes every {!Maintain.report} (progress printing,
    windowed fairness accumulation).

    [telemetry] makes the loop scrape-safe and observable: every batch
    commit (repair + registry updates + latency observation) runs under
    {!Mis_obs.Telemetry.with_lock}, each report is noted into the flight
    recorder, and batches whose repair latency exceeds the telemetry SLO
    increment the ["dyn.slo.breaches"] counter (when the maintainer has
    a registry).

    {!Maintain.Invariant_violation} (a failed check in strict mode)
    propagates — fail-fast is the point of strict serving. Nothing else
    in a batch raises: each batch gets one repair, run to completion.
    @raise Invalid_argument on a non-positive [batch_size] or
    [max_batches]. *)
