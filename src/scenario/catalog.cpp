// The built-in scenario catalog: every Figure-1 cell, ablation, extension,
// and example workload, as declarative specs. Each entry here used to be a
// ~100-line hand-written bench main; adding a new scenario is now a spec in
// this file (or a runtime scenarios().add(...) call).

#include "scenario/scenario.hpp"

namespace dualcast::scenario {
namespace {

void add_fig1_adaptive(ScenarioCatalog& c) {
  {
    ScenarioSpec s;
    s.name = "fig1/offline-global";
    s.title = "Figure 1 / DG + offline adaptive / global broadcast";
    s.paper_claim = "Omega(n) [11], O(n log^2 n) [12,13]; dual clique network";
    s.note =
        "expectation: decay-under-collider fits a linear-or-worse shape; "
        "round robin stays ~n and never fails.";
    s.topology = "dual_clique({x})";
    s.problem = "global(1)";
    s.sweep = {32, 64, 128, 256, 512};
    s.trials = 7;
    s.base_seed = 50;
    s.max_rounds = "600*n";
    s.columns = {
        {"decay+collider", "decay_global(fixed,persistent)", "collider", ""},
        {"decay+iid(0.5)", "decay_global(fixed,persistent)", "iid(0.5)", ""},
        {"roundrobin+collider", "round_robin", "collider", ""},
    };
    s.fit = {"decay+collider", "roundrobin+collider"};
    c.add(s);
  }
  {
    ScenarioSpec s;
    s.name = "fig1/offline-local";
    s.title = "Figure 1 / DG + offline adaptive / local broadcast";
    s.paper_claim = "Omega(n) [11], O(n log n) [8]; dual clique, B = side A";
    s.note =
        "expectation: attacked local decay ~linear-or-worse; round robin "
        "completes within one pass (n rounds).";
    s.topology = "dual_clique({x})";
    s.problem = "local(side_a)";
    s.sweep = {32, 64, 128, 256, 512};
    s.trials = 7;
    s.base_seed = 60;
    s.max_rounds = "600*n";
    s.columns = {
        {"decay+collider", "decay_local", "collider", ""},
        {"decay+iid(0.5)", "decay_local", "iid(0.5)", ""},
        {"roundrobin+collider", "round_robin(norelay)", "collider", ""},
    };
    s.fit = {"decay+collider"};
    c.add(s);
  }
  {
    ScenarioSpec s;
    s.name = "fig1/online-global";
    s.title =
        "Figure 1 / DG + online adaptive / global broadcast  [Theorem 3.1]";
    s.paper_claim = "Omega(n / log n); dual clique + dense/sparse adversary";
    s.note =
        "expectation: both decay variants fit a ~linear shape (permutation "
        "bits are useless once broadcast — the online adversary reads them "
        "from history); round robin stays O(n).";
    s.topology = "dual_clique({x})";
    s.problem = "global(1)";
    s.sweep = {32, 64, 128, 256, 512, 1024};
    s.trials = 11;
    s.base_seed = 70;
    s.max_rounds = "300*n";
    s.columns = {
        {"fixed+attack", "decay_global(fixed,persistent)", "dense_sparse(0.5)",
         ""},
        {"permuted+attack", "decay_global(permuted,persistent)",
         "dense_sparse(0.5)", ""},
        {"permuted+iid(0.5)", "decay_global(permuted,persistent)", "iid(0.5)",
         ""},
        {"roundrobin+attack", "round_robin", "dense_sparse(0.5)", ""},
    };
    s.fit = {"fixed+attack", "permuted+attack"};
    c.add(s);
  }
  {
    ScenarioSpec s;
    s.name = "fig1/online-local";
    s.title =
        "Figure 1 / DG + online adaptive / local broadcast  [Theorem 3.1]";
    s.paper_claim = "Omega(n / log n); dual clique, B = side A";
    s.note =
        "expectation: attacked decay ~linear; benign oblivious loss stays "
        "polylog; round robin one pass.";
    s.topology = "dual_clique({x})";
    s.problem = "local(side_a)";
    s.sweep = {32, 64, 128, 256, 512, 1024};
    s.trials = 11;
    s.base_seed = 80;
    s.max_rounds = "300*n";
    s.columns = {
        {"decay+attack", "decay_local", "dense_sparse(0.5)", ""},
        {"decay+iid(0.5)", "decay_local", "iid(0.5)", ""},
        {"roundrobin+attack", "round_robin(norelay)", "dense_sparse(0.5)", ""},
    };
    s.fit = {"decay+attack"};
    c.add(s);
  }
}

void add_fig1_oblivious(ScenarioCatalog& c) {
  {
    ScenarioSpec s;
    s.name = "fig1/oblivious-global-clique";
    s.title =
        "Figure 1 / DG + oblivious / global broadcast, dual clique "
        "[Theorem 4.1]";
    s.paper_claim = "O(D log n + log^2 n) by permuted decay (log^2 n regime)";
    s.note =
        "expectation: polylog fits against every oblivious adversary on "
        "constant-D networks (including the anti-schedule attack).";
    s.topology = "dual_clique({x})";
    s.problem = "global(1)";
    s.sweep = {32, 64, 128, 256, 512, 1024};
    s.trials = 9;
    s.base_seed = 90;
    s.max_rounds = "100*n";
    s.columns = {
        {"none", "decay_global(permuted,persistent)", "none", ""},
        {"all", "decay_global(permuted,persistent)", "all", ""},
        {"iid(0.5)", "decay_global(permuted,persistent)", "iid(0.5)", ""},
        {"flicker(3,5)", "decay_global(permuted,persistent)", "flicker(3,5)",
         ""},
        {"anti-schedule", "decay_global(permuted,persistent)", "anti_schedule",
         ""},
    };
    s.fit = {"none", "all", "iid(0.5)", "flicker(3,5)", "anti-schedule"};
    c.add(s);
  }
  {
    ScenarioSpec s;
    s.name = "fig1/oblivious-global-line";
    s.title =
        "Figure 1 / DG + oblivious / global broadcast, lines + random G' "
        "overlay [Theorem 4.1]";
    s.paper_claim = "O(D log n + log^2 n) by permuted decay (D log n regime)";
    s.note =
        "the oblivious worst case keeps all shortcuts OFF (static-line "
        "D log n behavior); i.i.d. availability shrinks the effective "
        "diameter and beats it. expectation: ~linear-in-D for the worst "
        "case.";
    s.topology = "line_overlay({x},4)";
    s.problem = "global(0)";
    s.sweep = {32, 64, 128, 256};
    s.trials = 5;
    s.base_seed = 95;
    s.max_rounds = "2000*n";
    s.columns = {
        {"none (worst case)", "decay_global(permuted,persistent)", "none", ""},
        {"iid(0.3)", "decay_global(permuted,persistent)", "iid(0.3)", ""},
    };
    s.fit = {"none (worst case)"};
    c.add(s);
  }
  {
    ScenarioSpec s;
    s.name = "fig1/oblivious-local-general";
    s.title =
        "Figure 1 / DG + oblivious / local broadcast, general graphs "
        "[Theorem 4.3]";
    s.paper_claim =
        "Omega(sqrt(n)/log n); bracelet network + isolated-broadcast-"
        "function pre-simulation";
    s.note =
        "the reported quantity is the latency of the clasp receiver b_t — "
        "exactly what the theorem bounds. expectation: attacked clasp "
        "latency grows ~sqrt(n)-family while benign latency stays flat; "
        "private permutation bits do not help (Lemma 4.5 concentration).";
    s.topology = "bracelet({x})";
    s.problem = "local(heads_a)";
    s.metric = "first_receive(clasp_b)";
    // Smallest size is k = 12: below that the sqrt(n) window is only a
    // handful of rounds and the construction has no room to bite.
    s.sweep = {288, 512, 1152, 2048, 4608, 8192};
    s.smoke_x = 288;
    s.trials = 25;
    s.base_seed = 100;
    s.max_rounds = "200*band_len";
    s.columns = {
        {"fixed:attack", "decay_local(fixed)", "bracelet_presim(0.3)", ""},
        {"fixed:benign", "decay_local(fixed)", "none", ""},
        {"permuted:attack", "decay_local(permuted)", "bracelet_presim(0.3)",
         ""},
        {"permuted:benign", "decay_local(permuted)", "none", ""},
    };
    s.fit = {"fixed:attack"};
    c.add(s);
  }
  {
    ScenarioSpec s;
    s.name = "fig1/oblivious-local-geo-n";
    s.title =
        "Figure 1 / DG + oblivious / local broadcast, geographic graphs "
        "[Theorem 4.6] — n sweep";
    s.paper_claim =
        "O(log^2 n log Delta) by seed dissemination + coordinated permuted "
        "decay";
    s.note =
        "expectation: polylog growth in n; no adversary in the oblivious "
        "suite defeats the coordination.";
    s.topology = "jgrid({x},{x},0.6,0.05,2.0)";
    s.problem = "local(every(3))";
    s.axis = "side";
    s.sweep = {5, 7, 10, 14, 20, 28};
    s.trials = 7;
    s.base_seed = 110;
    s.topology_seed = 7;
    s.max_rounds = "2097152";
    s.columns = {
        {"none", "geo_local", "none", ""},
        {"iid(0.5)", "geo_local", "iid(0.5)", ""},
        {"flicker(2,3)", "geo_local", "flicker(2,3)", ""},
    };
    s.fit = {"iid(0.5)"};
    c.add(s);
  }
  {
    ScenarioSpec s;
    s.name = "fig1/oblivious-local-geo-delta";
    s.title =
        "Figure 1 / DG + oblivious / local broadcast, geographic graphs "
        "[Theorem 4.6] — Delta sweep";
    s.paper_claim = "O(log^2 n log Delta): Delta swept via grid density";
    s.note = "expectation: rounds grow gently (log Delta factor).";
    s.topology = "jgrid(12,12,{x},0.04,2.0)";
    s.problem = "local(every(3))";
    s.axis = "spacing";
    s.sweep = {0.9, 0.65, 0.45, 0.3};
    s.trials = 7;
    s.base_seed = 120;
    s.topology_seed = 4242;
    s.max_rounds = "2097152";
    s.columns = {{"iid(0.5)", "geo_local", "iid(0.5)", ""}};
    c.add(s);
  }
}

void add_fig1_static(ScenarioCatalog& c) {
  {
    ScenarioSpec s;
    s.name = "fig1/static-global-clique";
    s.title =
        "Figure 1 / bottom row / global broadcast (protocol model), "
        "dual-clique G layer";
    s.paper_claim = "Theta(D log(n/D) + log^2 n)   [2, 10, 1, 15]";
    s.note =
        "the G layer of the dual clique (two cliques + one bridge, D<=3) as "
        "a protocol-model network: the log^2 n term in isolation. "
        "expectation: log^2-family fits.";
    s.topology = "dual_clique_g({x})";
    s.problem = "global(1)";
    s.sweep = {32, 64, 128, 256, 512, 1024};
    s.trials = 9;
    s.base_seed = 10;
    s.max_rounds = "20000";
    s.columns = {
        {"fixed decay", "decay_global(fixed)", "none", ""},
        {"permuted decay", "decay_global(permuted)", "none", ""},
    };
    s.fit = {"fixed decay", "permuted decay"};
    c.add(s);
  }
  {
    ScenarioSpec s;
    s.name = "fig1/static-global-line";
    s.title =
        "Figure 1 / bottom row / global broadcast (protocol model), lines";
    s.paper_claim = "Theta(D log(n/D) + log^2 n): the D term in isolation";
    s.note = "expectation: ~linear-in-D fit (D = n - 1 on a line).";
    s.topology = "line({x})";
    s.problem = "global(0)";
    s.sweep = {32, 64, 128, 256, 512};
    s.trials = 5;
    s.base_seed = 20;
    s.max_rounds = "1200*n";
    s.columns = {{"permuted decay", "decay_global(permuted)", "none", ""}};
    s.fit = {"permuted decay"};
    c.add(s);
  }
  {
    ScenarioSpec s;
    s.name = "fig1/static-local-n";
    s.title =
        "Figure 1 / bottom row / local broadcast (protocol model) — n sweep "
        "at fixed Delta";
    s.paper_claim = "Theta(log n log Delta)   [2, 8]";
    s.note = "expectation: ~log growth in n at fixed Delta.";
    s.topology = "jgrid({x},{x},0.7,0.05,2.0)";
    s.problem = "local(every(3))";
    s.axis = "side";
    s.sweep = {5, 8, 12, 18, 27, 40};
    s.trials = 9;
    s.base_seed = 30;
    s.max_rounds = "20000";
    s.columns = {{"decay", "decay_local", "none", ""}};
    s.fit = {"decay"};
    c.add(s);
  }
  {
    ScenarioSpec s;
    s.name = "fig1/static-local-delta";
    s.title =
        "Figure 1 / bottom row / local broadcast (protocol model) — Delta "
        "sweep at fixed n";
    s.paper_claim = "Theta(log n log Delta): Delta swept via grid density";
    s.note = "expectation: rounds grow gently (log-like) with Delta.";
    s.topology = "jgrid(14,14,{x},0.04,2.0)";
    s.problem = "local(every(3))";
    s.axis = "spacing";
    s.sweep = {0.9, 0.7, 0.5, 0.35, 0.25};
    s.trials = 9;
    s.base_seed = 40;
    s.topology_seed = 777;
    s.max_rounds = "40000";
    s.columns = {{"decay", "decay_local", "none", ""}};
    c.add(s);
  }
}

void add_ablations(ScenarioCatalog& c) {
  {
    ScenarioSpec s;
    s.name = "ablation/iid-vs-adversarial";
    s.title = "Ablation: i.i.d. loss vs adversarial links (dual clique)";
    s.paper_claim =
        "adversarial link control is qualitatively harder than random loss "
        "(§1)";
    s.note =
        "expectation: every iid column stays polylog; the adversarial "
        "columns are one to two orders of magnitude slower — adversarial "
        "unreliability is not reducible to a loss rate.";
    s.topology = "dual_clique({x})";
    s.problem = "global(1)";
    s.sweep = {512};
    s.smoke_x = 32;
    s.trials = 9;
    s.base_seed = 150;
    s.max_rounds = "300*n";
    s.columns = {
        {"iid(0)", "decay_global(fixed,persistent)", "iid(0)", ""},
        {"iid(0.1)", "decay_global(fixed,persistent)", "iid(0.1)", ""},
        {"iid(0.25)", "decay_global(fixed,persistent)", "iid(0.25)", ""},
        {"iid(0.5)", "decay_global(fixed,persistent)", "iid(0.5)", ""},
        {"iid(0.75)", "decay_global(fixed,persistent)", "iid(0.75)", ""},
        {"iid(0.9)", "decay_global(fixed,persistent)", "iid(0.9)", ""},
        {"iid(1)", "decay_global(fixed,persistent)", "iid(1)", ""},
        {"dense/sparse", "decay_global(fixed,persistent)", "dense_sparse(0.5)",
         ""},
        {"collider", "decay_global(fixed,persistent)", "collider", ""},
    };
    c.add(s);
  }
  {
    ScenarioSpec s;
    s.name = "ablation/permutation";
    s.title = "Ablation: permutation bits (fixed vs permuted Decay)";
    s.paper_claim =
        "permutation helps against oblivious schedule attacks only (§4.1 vs "
        "§3)";
    s.note =
        "expectation: the permuted columns improve the anti-schedule cell "
        "by an order of magnitude and change little elsewhere.";
    s.topology = "dual_clique({x})";
    s.problem = "global(1)";
    s.sweep = {512};
    s.smoke_x = 32;
    s.trials = 9;
    s.base_seed = 130;
    s.max_rounds = "300*n";
    s.columns = {
        {"fixed+iid(0.5)", "decay_global(fixed,persistent)", "iid(0.5)", ""},
        {"fixed+anti-schedule", "decay_global(fixed,persistent)",
         "anti_schedule", ""},
        {"fixed+dense/sparse", "decay_global(fixed,persistent)",
         "dense_sparse(0.5)", ""},
        {"permuted+iid(0.5)", "decay_global(permuted,persistent)", "iid(0.5)",
         ""},
        {"permuted+anti-schedule", "decay_global(permuted,persistent)",
         "anti_schedule", ""},
        {"permuted+dense/sparse", "decay_global(permuted,persistent)",
         "dense_sparse(0.5)", ""},
    };
    c.add(s);
  }
  {
    ScenarioSpec s;
    s.name = "ablation/seeds";
    s.title = "Ablation: shared seeds vs private seeds (geo_local)";
    s.paper_claim =
        "the initialization stage is what makes §4.3's coordination work";
    s.note =
        "this ablation prices the paper's coordination machinery: the "
        "shared-seed algorithm pays its fixed initialization schedule plus "
        "group-level participation thinning — worst-case insurance measured "
        "honestly as overhead at benign operating points.";
    // Dense broadcast set on a dense geo graph: contention is the bottleneck.
    s.topology = "jgrid(14,14,0.4,0.04,2.0)";
    s.problem = "local(every(2))";
    s.axis = "side";
    s.sweep = {14};
    s.trials = 9;
    s.base_seed = 140;
    s.topology_seed = 99;
    s.max_rounds = "2097152";
    s.columns = {
        {"shared+none", "geo_local", "none", ""},
        {"shared+iid(0.5)", "geo_local", "iid(0.5)", ""},
        {"shared+flicker(2,3)", "geo_local", "flicker(2,3)", ""},
        {"private+none", "geo_local(private)", "none", ""},
        {"private+iid(0.5)", "geo_local(private)", "iid(0.5)", ""},
        {"private+flicker(2,3)", "geo_local(private)", "flicker(2,3)", ""},
    };
    c.add(s);
  }
}

void add_extensions(ScenarioCatalog& c) {
  {
    ScenarioSpec s;
    s.name = "ext/gossip-k";
    s.title = "Extension: k-gossip in the dual graph model — token sweep";
    s.paper_claim =
        "future work per the paper's conclusion; the adversary hierarchy "
        "should transfer";
    s.note =
        "note: k >= 2 saturates the cliques (every node relays every token "
        "forever), so the bridge endpoint must out-shout its whole side — "
        "rounds grow ~k x n-ish rather than k x polylog.";
    s.topology = "dual_clique(128)";
    s.problem = "gossip({x})";
    s.axis = "k";
    s.sweep = {1, 2, 4, 8, 16};
    s.trials = 7;
    s.base_seed = 160;
    s.max_rounds = "3000*x+20000";
    s.columns = {
        {"protocol model", "gossip", "none", ""},
        {"iid(0.5)", "gossip", "iid(0.5)", ""},
        {"dense/sparse", "gossip", "dense_sparse(0.5)", ""},
    };
    c.add(s);
  }
  {
    ScenarioSpec s;
    s.name = "ext/gossip-quiesce";
    s.title = "Extension: quiescing k-gossip — retiring tokens vs saturation";
    s.paper_claim =
        "windowed relaying (the DecayGlobal call budget, applied per token) "
        "thins clique saturation";
    s.note =
        "saturating gossip keeps every holder relaying every token forever "
        "(the ext/gossip-k note); gossip(quiesce) retires each token after "
        "its decay-call budget, so steady-state contention decays and the "
        "bridge stops being out-shouted. expectation: quiesce at or below "
        "the saturating column at k >= 2, and still solving.";
    s.topology = "dual_clique(128)";
    s.problem = "gossip({x})";
    s.axis = "k";
    s.sweep = {2, 4, 8};
    s.trials = 7;
    s.base_seed = 180;
    s.max_rounds = "3000*x+20000";
    s.columns = {
        {"saturate+iid(0.5)", "gossip", "iid(0.5)", ""},
        {"quiesce+iid(0.5)", "gossip(quiesce)", "iid(0.5)", ""},
        {"quiesce+dense/sparse", "gossip(quiesce)", "dense_sparse(0.5)", ""},
    };
    c.add(s);
  }
  {
    ScenarioSpec s;
    s.name = "ext/gossip-n";
    s.title = "Extension: k-gossip in the dual graph model — network sweep";
    s.paper_claim = "k = 4 tokens, growing dual cliques";
    s.note =
        "expectation: oblivious columns stay within small factors of the "
        "protocol model while the online adaptive column inherits the "
        "broadcast lower bound's ~linear blow-up.";
    s.topology = "dual_clique({x})";
    s.problem = "gossip(4)";
    s.sweep = {32, 64, 128, 256};
    s.trials = 7;
    s.base_seed = 170;
    s.max_rounds = "400*n";
    s.columns = {
        {"protocol model", "gossip", "none", ""},
        {"iid(0.5)", "gossip", "iid(0.5)", ""},
        {"dense/sparse", "gossip", "dense_sparse(0.5)", ""},
    };
    c.add(s);
  }
}

void add_summary(ScenarioCatalog& c) {
  {
    ScenarioSpec s;
    s.name = "fig1/summary-clique";
    s.title =
        "FIGURE 1 summary — dual clique cells (adaptive vs oblivious), n=256";
    s.paper_claim =
        "reading down: adaptive rows cost ~two orders of magnitude more "
        "than the oblivious row";
    s.topology = "dual_clique({x})";
    s.sweep = {256};
    s.smoke_x = 32;
    s.trials = 9;
    s.base_seed = 340;
    s.max_rounds = "600*n";
    s.columns = {
        {"offline/global", "decay_global(fixed,persistent)", "collider",
         "global(1)"},
        {"offline/local", "decay_local", "collider", "local(side_a)"},
        {"online/global", "decay_global(permuted,persistent)",
         "dense_sparse(0.5)", "global(1)"},
        {"online/local", "decay_local", "dense_sparse(0.5)", "local(side_a)"},
        {"oblivious/global", "decay_global(permuted,persistent)", "iid(0.5)",
         "global(1)"},
    };
    c.add(s);
  }
  {
    ScenarioSpec s;
    s.name = "fig1/summary-bracelet";
    s.title = "FIGURE 1 summary — oblivious local, general graphs (bracelet)";
    s.paper_claim = "Omega(sqrt n / log n): clasp latency under pre-simulation";
    s.topology = "bracelet({x})";
    s.problem = "local(heads_a)";
    s.metric = "first_receive(clasp_b)";
    s.sweep = {2048};
    s.smoke_x = 288;
    s.trials = 9;
    s.base_seed = 300;
    s.max_rounds = "200*band_len";
    s.columns = {
        {"clasp latency", "decay_local", "bracelet_presim(0.3)", ""},
    };
    c.add(s);
  }
  {
    ScenarioSpec s;
    s.name = "fig1/summary-geo";
    s.title = "FIGURE 1 summary — oblivious local, geographic graphs";
    s.paper_claim = "O(log^2 n log Delta) coordinated permuted decay";
    s.topology = "jgrid({x},{x},0.6,0.05,2.0)";
    s.problem = "local(every(3))";
    s.axis = "side";
    s.sweep = {14};
    s.smoke_x = 5;
    s.trials = 9;
    s.base_seed = 310;
    s.topology_seed = 5;
    s.max_rounds = "2097152";
    s.columns = {{"geo local + iid(0.5)", "geo_local", "iid(0.5)", ""}};
    c.add(s);
  }
  {
    ScenarioSpec s;
    s.name = "fig1/summary-static-global";
    s.title = "FIGURE 1 summary — no dynamic links, global (16x16 grid)";
    s.paper_claim = "Theta(D log(n/D) + log^2 n); D = 30 makes both terms "
                    "visible";
    s.topology = "grid({x},{x})";
    s.problem = "global(0)";
    s.axis = "side";
    s.sweep = {16};
    s.smoke_x = 5;
    s.trials = 9;
    s.base_seed = 330;
    s.max_rounds = "200000";
    s.columns = {{"permuted decay", "decay_global(permuted)", "none", ""}};
    c.add(s);
  }
  {
    ScenarioSpec s;
    s.name = "fig1/summary-static-local";
    s.title = "FIGURE 1 summary — no dynamic links, local (geo G layer)";
    s.paper_claim = "Theta(log n log Delta)";
    s.topology = "jgrid_g(14,14,0.6,0.05,2.0)";
    s.problem = "local(every(3))";
    s.axis = "side";
    s.sweep = {14};
    s.trials = 9;
    s.base_seed = 320;
    s.topology_seed = 6;
    s.max_rounds = "40000";
    s.columns = {{"decay", "decay_local", "none", ""}};
    c.add(s);
  }
}

void add_examples(ScenarioCatalog& c) {
  {
    ScenarioSpec s;
    s.name = "example/showdown";
    s.title = "Adversary showdown: 3 algorithms x 4 adversaries, dual clique";
    s.paper_claim =
        "the adversary's information access, not the topology, decides "
        "whether broadcast is cheap";
    s.topology = "dual_clique({x})";
    s.problem = "global(1)";
    s.sweep = {256};
    s.smoke_x = 32;
    s.trials = 5;
    s.base_seed = 1;
    s.max_rounds = "600*n";
    s.columns = {
        {"fixed | iid", "decay_global(fixed,persistent)", "iid(0.5)", ""},
        {"fixed | anti-sched", "decay_global(fixed,persistent)",
         "anti_schedule", ""},
        {"fixed | dense/sparse", "decay_global(fixed,persistent)",
         "dense_sparse(0.5)", ""},
        {"fixed | collider", "decay_global(fixed,persistent)", "collider", ""},
        {"permuted | iid", "decay_global(permuted,persistent)", "iid(0.5)",
         ""},
        {"permuted | anti-sched", "decay_global(permuted,persistent)",
         "anti_schedule", ""},
        {"permuted | dense/sparse", "decay_global(permuted,persistent)",
         "dense_sparse(0.5)", ""},
        {"permuted | collider", "decay_global(permuted,persistent)",
         "collider", ""},
        {"robin | iid", "round_robin", "iid(0.5)", ""},
        {"robin | anti-sched", "round_robin", "anti_schedule", ""},
        {"robin | dense/sparse", "round_robin", "dense_sparse(0.5)", ""},
        {"robin | collider", "round_robin", "collider", ""},
    };
    c.add(s);
  }
  {
    ScenarioSpec s;
    s.name = "example/sensor-field";
    s.title = "Sensor-field alarm dissemination under oblivious link weather";
    s.paper_claim =
        "§4.3 geographic local broadcast keeps working whatever the "
        "(oblivious) weather";
    s.note =
        "every weather pattern is an oblivious adversary — precisely the "
        "model §4.3 is designed for.";
    s.topology = "random_geo(180,9,2)";
    s.problem = "local(every(4))";
    s.sweep = {180};
    s.trials = 5;
    s.base_seed = 11;
    s.topology_seed = 2026;
    s.max_rounds = "2097152";
    s.columns = {
        {"calm (grey off)", "geo_local", "none", ""},
        {"clear (grey on)", "geo_local", "all", ""},
        {"gusty (iid 0.5)", "geo_local", "iid(0.5)", ""},
        {"stormy (flicker 2,5)", "geo_local", "flicker(2,5)", ""},
    };
    c.add(s);
  }
}

// The large-n scaling tier: the regimes where Figure 1's asymptotic
// separations become visually unambiguous, and where the engine's
// word-parallel RNG and implicit clique layers earn their keep (the grids
// resolve on the sweep). Full sweeps here measure actual completion at
// scale, and --smoke keeps them tiny for ctest. The dual cliques all run
// on the implicit representation (structured resolver path, no O(n^2)
// CSR) — the 16k/64k points are hour-scale completion runs, priced for
// dedicated lower-bound measurement, not for casual --all sessions.
void add_scale(ScenarioCatalog& c) {
  {
    ScenarioSpec s;
    s.name = "scale/jgrid-iid";
    s.title = "Scale tier: local decay on jittered grids, n = 4k / 16k / 64k";
    s.paper_claim =
        "Theta(log n log Delta)-style local broadcast stays polylog as n "
        "grows 16x per point";
    s.note =
        "expectation: median rounds grow ~log n while n grows 16x per "
        "point — the separation from the adaptive rows' linear growth is "
        "unmistakable at this scale.";
    s.topology = "jgrid({x},{x},0.5,0.05,2.0)";
    s.problem = "local(every(3))";
    s.axis = "side";
    s.sweep = {64, 128, 256};  // n = 4096, 16384, 65536
    s.smoke_x = 8;
    s.trials = 3;
    s.base_seed = 400;
    s.topology_seed = 17;
    s.max_rounds = "20000";
    s.columns = {{"decay+iid(0.3)", "decay_local", "iid(0.3)", ""}};
    c.add(s);
  }
  {
    ScenarioSpec s;
    s.name = "scale/dual-clique-attack";
    s.title =
        "Scale tier: persistent decay vs online dense/sparse, "
        "n = 4k / 16k / 64k";
    s.paper_claim =
        "Omega(n / log n) at sizes where the linear blow-up dwarfs polylog";
    s.topology = "dual_clique({x})";
    s.problem = "global(1)";
    s.sweep = {4096, 16384, 65536};
    s.smoke_x = 64;
    s.trials = 3;
    s.base_seed = 410;
    s.max_rounds = "300*n";
    s.columns = {
        {"decay+dense/sparse", "decay_global(fixed,persistent)",
         "dense_sparse(0.5)", ""},
    };
    c.add(s);
  }
  {
    ScenarioSpec s;
    s.name = "scale/dual-clique-collider";
    s.title =
        "Scale tier: persistent decay vs offline collider, "
        "n = 4k / 16k / 64k";
    s.paper_claim = "Omega(n) offline adaptive lower bound at scale";
    s.topology = "dual_clique({x})";
    s.problem = "global(1)";
    s.sweep = {4096, 16384, 65536};
    s.smoke_x = 64;
    s.trials = 3;
    s.base_seed = 420;
    s.max_rounds = "600*n";
    s.columns = {
        {"decay+collider", "decay_global(fixed,persistent)", "collider", ""},
    };
    c.add(s);
  }
}

}  // namespace

void register_builtin_scenarios(ScenarioCatalog& catalog) {
  add_fig1_adaptive(catalog);
  add_fig1_oblivious(catalog);
  add_fig1_static(catalog);
  add_ablations(catalog);
  add_extensions(catalog);
  add_summary(catalog);
  add_examples(catalog);
  add_scale(catalog);
}

}  // namespace dualcast::scenario
