(** A bounded line reader for JSONL streams: the one reader behind
    {!Replay.of_jsonl} and the serve loop.

    [input_line] buffers a whole line however long it is, so one line
    without a newline can take all memory. This reader reads its channel
    in blocks, finds each ['\n'] with one scan per block, and gives up
    on a line longer than {!max_line_bytes}: it reports the line as
    {!Too_long}, drops its bytes as they arrive and resumes after the
    next newline. Lines are returned as [input_line] returns them:
    without the ['\n'], a ['\r'] kept, and a last line without a newline
    still returned. *)

val max_line_bytes : int
(** 1 MiB: the longest line, newline excluded, that is returned. *)

type t

type line = Line of string | Too_long | Eof

val create : in_channel -> t
(** A reader of the channel from its current position. It reads ahead:
    once a reader is made, read the channel only through it. *)

val next : t -> line
(** The next line; [Eof] at end of input, and on every call after. *)
