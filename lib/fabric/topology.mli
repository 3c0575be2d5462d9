(** Fabric topologies: hosts and switches joined by delay-carrying links.

    A topology is an undirected edge list over hosts ([h0, h1, ...]) and
    switches ([s0, s1, ...]), validated at construction — no self-loops,
    no host-to-host edges, every host on exactly one switch, every host
    reachable from every other — and lowered to directed links: edge [i]
    becomes links [2i] and [2i+1], one per direction.  A link's integer
    [l_delay] is its propagation time in machine cycles; the fabric
    driver models each link as a FIFO of in-flight packets stamped with
    due cycles.

    Egress ports are positional: switch [s]'s port [p] is
    [(out_links t s).(p)].  The routing layer ({!Routing}) compiles
    per-switch destination predicates down to these port indices.

    Constructors list host edges in ascending host order so host-uplink
    link ids ascend with host ids — the property that makes a one-switch
    fabric admit packets in the same order as a plain [Sim] run over the
    (time, port)-sorted trace. *)

type endpoint = Host of int | Switch of int

type edge = { a : endpoint; b : endpoint; e_delay : int }

type link = { l_src : endpoint; l_dst : endpoint; l_delay : int }

type t

val edge : ?delay:int -> endpoint -> endpoint -> edge
(** [delay] defaults to 0. *)

val make : n_switches:int -> n_hosts:int -> edge list -> (t, string) result
(** Validate and build; errors name the offending edge by index and
    endpoints (["topology: edge 3 (h1-s0): ..."]). *)

(** {2 Stock shapes}

    All raise [Invalid_argument] on a bad shape.  Host links have delay
    0; [delay] applies to switch-switch trunks. *)

val line : switches:int -> hosts_per_sw:int -> delay:int -> t
val leaf_spine : leaves:int -> spines:int -> hosts_per_leaf:int -> delay:int -> t

val of_spec : string -> (t, string) result
(** Parse a CLI topology spec, positioned errors on the offending token:
    {v
    line:4,hosts=2,delay=1
    tree:depth=2,fanout=2,hosts=1
    fattree:4
    leafspine:2x2,hosts=2,delay=1
    edges:h0-s0;s0-s1:2;s1-h1
    v} *)

(** {2 Accessors} *)

val n_switches : t -> int
val n_hosts : t -> int
val n_links : t -> int
val link : t -> int -> link

val host_switch : t -> int -> int
val host_uplink : t -> int -> int
(** The host-to-switch link carrying injected traffic. *)

val host_downlink : t -> int -> int
(** The switch-to-host link carrying delivered traffic. *)

val out_links : t -> int -> int array
(** Switch egress link ids, ascending; the egress port number of a link
    is its index here. *)

val switch_peers : t -> int -> (int * int) array
(** [(neighbour switch, out-link id)] pairs, for shortest-path search. *)

val pp : Format.formatter -> t -> unit
(** Stable pretty-print (pinned by [test/cram/fabric.t]). *)

val digest : t -> int
(** Structural FNV digest, embedded in fabric snapshots so a resume
    against a different topology is detected. *)
