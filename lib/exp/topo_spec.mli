(** Textual topology specifications for the CLI and examples.

    Grammar: [name] or [name:key=value,key=value].

    Known names (defaults in parentheses):
    - [binary:depth=10] — complete binary tree
    - [kary:branch=3,depth=4] — complete k-ary tree
    - [alternating:branch=10,depth=5]
    - [path:n=32], [star:n=32], [spider:legs=5,len=4]
    - [caterpillar:spine=8,legs=2]
    - [prufer:n=64,seed=1], [prefattach:n=64,seed=1]
    - [grid:w=8,h=8], [evencycle:n=16], [hypercube:dim=6]
    - [completebipartite:left=4,right=6], [doublestar:left=5,right=9]
    - [randombipartite:left=32,right=32,p=0.05,seed=1]
    - [trigrid:w=8,h=8], [wheel:n=16], [cycle:n=16], [fan:n=16],
      [outerplanar:n=32,seed=1]
    - [clique:n=16], [cone:k=8]
    - [dartmouth:seed=1], [nyc:seed=1], [nyc-small:seed=1]
    - [file:path=graph.edges] — read a {!Mis_graph.Io} edge list

    The list is {!names}: each entry's keys are the topology's only keys,
    and its defaults give their types (an integer default makes an
    integer key, a decimal one a number, [path] a string). *)

val parse : string -> (Mis_graph.Graph.t, string) result
(** [Error] names the topology and the key for an unknown name, an
    unknown key, a value of the wrong type or a token without [=]; a
    generator's own [Invalid_argument]/[Failure] also comes back as
    [Error]. [file] has no default path. *)

val names : string list
(** Known topology names with their keys and defaults. *)
