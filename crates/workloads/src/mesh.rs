//! Many-core mesh workloads for the `epic-array` simulator.
//!
//! Each workload here is one IR program that every core of the mesh
//! runs; a core discovers its identity from the mailbox window (see
//! `epic_array::mailbox`) and picks its share of the work by striding
//! over a block/node space. Results funnel over the mesh to core 0,
//! whose final memory must equal a single-core scalar oracle — the
//! same golden models the Table 1 benchmarks check against.
//!
//! * [`dct`] — tiled DCT: every 8×8 block of the image is transformed
//!   by its owning core and shipped to core 0 (gather pattern);
//! * [`bfs`] — unit-weight single-source shortest paths by strict-BSP
//!   Bellman–Ford: per superstep each core relaxes its owned nodes'
//!   out-edges, broadcasts its distance array to every peer, and
//!   min-merges what it receives (all-to-all frontier exchange);
//! * [`aes_ctr`] — AES-128 in counter mode: the block space is sharded
//!   per core, each core expands the key itself and encrypts its
//!   counters, ciphertext funnels to core 0 (embarrassingly parallel).
//!
//! # Why every mailbox status transition hides behind a call
//!
//! The compiler's scheduler freely reorders *independent* loads and
//! stores (same base, different offsets) and speculates loads above
//! branches — but nothing moves across a call boundary. A mailbox
//! commit (`TX_STATUS = 1`) that drifted above its payload stores, or
//! a release (`RX_STATUS = 0`) that drifted above the payload loads,
//! would hand the harness a half-written message. So the status words
//! are only ever touched inside tiny dedicated functions
//! ([`helper_functions`]), never inline-hinted: the surrounding calls
//! pin the payload accesses on the correct side of the handshake.
//!
//! Every program also runs standalone (interpreter, single simulator):
//! an unpoked mailbox reads all zeroes, the core clamps `ncores` to 1,
//! owns all the work and never touches the TX/RX machinery.

use crate::inputs;
use crate::{aes, dct, Scale, Workload};
use epic_array::mailbox;
use epic_ir::ast::{Expr, FunctionDef, Program, Stmt};
use epic_ir::Global;

fn v(name: &str) -> Expr {
    Expr::var(name)
}

fn lit(x: i64) -> Expr {
    Expr::lit(x)
}

/// Address of a mailbox word (`off` is a word offset).
fn mb(off: u32) -> Expr {
    Expr::global(mailbox::GLOBAL) + lit(i64::from(off * 4))
}

/// The mailbox global every mesh program must declare.
fn mailbox_global() -> Global {
    Global::zeroed(mailbox::GLOBAL, mailbox::MAILBOX_BYTES)
}

/// The shared mailbox-protocol helpers. None are inline-hinted: their
/// call boundaries are what orders the handshake (module docs).
fn helper_functions() -> Vec<FunctionDef> {
    vec![
        // 1 when the TX mailbox is free for staging.
        FunctionDef::new("mesh_tx_free", [] as [&str; 0])
            .body([Stmt::ret(mb(mailbox::TX_STATUS).load_word().eq(lit(0)))]),
        // Commit a staged payload of `len` words to core `dst`. The
        // nested call keeps the status store after the header stores.
        FunctionDef::new("mesh_commit", ["dst", "len"]).body([
            Stmt::store_word(mb(mailbox::TX_DEST), v("dst")),
            Stmt::store_word(mb(mailbox::TX_LEN), v("len")),
            Stmt::call("mesh_commit_status", []),
            Stmt::ret_void(),
        ]),
        FunctionDef::new("mesh_commit_status", [] as [&str; 0]).body([
            Stmt::store_word(mb(mailbox::TX_STATUS), lit(1)),
            Stmt::ret_void(),
        ]),
        // Non-zero when a delivery is waiting in the RX mailbox.
        FunctionDef::new("mesh_rx_ready", [] as [&str; 0])
            .body([Stmt::ret(mb(mailbox::RX_STATUS).load_word())]),
        // Free the RX mailbox for the next delivery.
        FunctionDef::new("mesh_rx_release", [] as [&str; 0]).body([
            Stmt::store_word(mb(mailbox::RX_STATUS), lit(0)),
            Stmt::ret_void(),
        ]),
    ]
}

/// Emits the identity prologue: `me`, `ncores` (clamped to 1 so the
/// program also runs standalone where the mailbox reads zero).
fn emit_identity(body: &mut Vec<Stmt>) {
    body.push(Stmt::let_("me", mb(mailbox::CORE_ID).load_word()));
    body.push(Stmt::let_(
        "ncores",
        mb(mailbox::MESH_WIDTH).load_word() * mb(mailbox::MESH_HEIGHT).load_word(),
    ));
    body.push(Stmt::if_(
        v("ncores").eq(lit(0)),
        [Stmt::assign("ncores", lit(1))],
    ));
}

/// Emits a blocking wait for a free TX mailbox. `drain` statements run
/// every poll iteration (pass the RX drain for all-to-all protocols to
/// stay deadlock-free; senders that never receive pass nothing).
fn emit_wait_tx(body: &mut Vec<Stmt>, drain: Vec<Stmt>) {
    body.push(Stmt::while_(
        Expr::call("mesh_tx_free", []).eq(lit(0)),
        drain,
    ));
}

/// Emits a blocking wait for an RX delivery. After this the payload
/// can be read with plain loads; finish with `mesh_rx_release`.
fn emit_wait_rx(body: &mut Vec<Stmt>) {
    body.push(Stmt::while_(Expr::call("mesh_rx_ready", []).eq(lit(0)), []));
}

// ----------------------------------------------------------------------
// Tiled DCT
// ----------------------------------------------------------------------

/// Mesh DCT image dimensions per scale (multiples of 8).
#[must_use]
pub fn dct_dimensions(scale: Scale) -> (u32, u32) {
    match scale {
        Scale::Test => (32, 32),
        Scale::Paper => (256, 256),
    }
}

/// Tiled DCT over a full image: block `b` is owned by core
/// `b % ncores`; workers roundtrip their blocks and ship the
/// reconstructed pixels to core 0 as `[b, 16 packed words]`.
#[must_use]
pub fn dct(scale: Scale) -> Workload {
    let (width, height) = dct_dimensions(scale);
    let ppm = inputs::ppm_image(width, height, dct::SEED);
    let gray = inputs::grayscale_from_ppm(&ppm, width, height);
    let expected = dct::golden_image(&gray, width, height);

    let w = i64::from(width);
    let blocks_x = i64::from(width / 8);
    let nblocks = blocks_x * i64::from(height / 8);

    // dct_block(by, bx): roundtrip one 8x8 block in place.
    let block_fn = FunctionDef::new("dct_block", ["by", "bx"]).body(dct::emit_block_body(width));

    // Packed row r of block (by, bx) starts at this byte offset of
    // dct_output; rows are two big-endian words (8-multiple offsets,
    // so word loads/stores are aligned).
    let row_addr = |r: i64| {
        Expr::global("dct_output") + (v("by") * lit(8) + lit(r)) * lit(w) + v("bx") * lit(8)
    };

    let mut body = Vec::new();
    emit_identity(&mut body);

    // Every core transforms its own blocks; workers ship each block to
    // core 0 as soon as it is done.
    let mut own_loop = vec![
        Stmt::let_("by", v("b").div(lit(blocks_x))),
        Stmt::let_("bx", v("b").rem(lit(blocks_x))),
        Stmt::call("dct_block", [v("by"), v("bx")]),
    ];
    let mut send = Vec::new();
    // Senders never receive, so the plain TX wait cannot deadlock.
    emit_wait_tx(&mut send, vec![]);
    send.push(Stmt::store_word(mb(mailbox::TX_DATA), v("b")));
    for r in 0..8i64 {
        for half in 0..2i64 {
            send.push(Stmt::store_word(
                mb(mailbox::TX_DATA + 1) + lit((r * 2 + half) * 4),
                (row_addr(r) + lit(half * 4)).load_word(),
            ));
        }
    }
    send.push(Stmt::call("mesh_commit", [lit(0), lit(17)]));
    own_loop.push(Stmt::if_(v("me").ne(lit(0)), send));
    own_loop.push(Stmt::assign("b", v("b") + v("ncores")));
    body.push(Stmt::let_("b", v("me")));
    body.push(Stmt::while_(v("b").lt_s(lit(nblocks)), own_loop));

    // Core 0 gathers the blocks it does not own.
    let mut recv = Vec::new();
    emit_wait_rx(&mut recv);
    recv.push(Stmt::let_("b", mb(mailbox::RX_DATA).load_word()));
    recv.push(Stmt::let_("by", v("b").div(lit(blocks_x))));
    recv.push(Stmt::let_("bx", v("b").rem(lit(blocks_x))));
    for r in 0..8i64 {
        for half in 0..2i64 {
            recv.push(Stmt::store_word(
                row_addr(r) + lit(half * 4),
                (mb(mailbox::RX_DATA + 1) + lit((r * 2 + half) * 4)).load_word(),
            ));
        }
    }
    recv.push(Stmt::call("mesh_rx_release", []));
    // Core 0 owns ceil(nblocks / ncores) blocks and receives the rest.
    let own = (lit(nblocks) + v("ncores") - lit(1)).div(v("ncores"));
    body.push(Stmt::if_(
        v("me").eq(lit(0)),
        [
            Stmt::let_("expect", lit(nblocks) - own),
            Stmt::let_("got", lit(0)),
            Stmt::while_(v("got").lt_s(v("expect")), {
                let mut r = recv;
                r.push(Stmt::assign("got", v("got") + lit(1)));
                r
            }),
        ],
    ));

    let mut program = Program::new()
        .global(mailbox_global())
        .global(Global::with_bytes("dct_input", gray))
        .global(Global::zeroed("dct_tmp", 64 * 4))
        .global(Global::zeroed("dct_freq", 64 * 4))
        .global(Global::zeroed("dct_tmp2", 64 * 4))
        .global(Global::zeroed("dct_output", width * height))
        .function(block_fn)
        .function(FunctionDef::new("mesh_dct_main", [] as [&str; 0]).body(body));
    for f in helper_functions() {
        program = program.function(f);
    }

    Workload {
        name: "mesh_dct".to_owned(),
        description: format!(
            "tiled 8x8 DCT of a {width}x{height} image, one block stripe per core"
        ),
        program,
        entry: "mesh_dct_main".to_owned(),
        output_global: "dct_output".to_owned(),
        expected,
    }
}

// ----------------------------------------------------------------------
// BFS (unit-weight SSSP) with all-to-all frontier exchange
// ----------------------------------------------------------------------

/// Mesh BFS node counts per scale (distance array + header must fit
/// one message: n ≤ MAX_PAYLOAD_WORDS).
#[must_use]
pub fn bfs_nodes(scale: Scale) -> u32 {
    match scale {
        Scale::Test => 16,
        Scale::Paper => 24,
    }
}

/// The BFS input seed.
pub const BFS_SEED: u64 = 0xBF50_0001;

/// Unit-weight single-source distances from node 0 over the directed
/// graph `adj` (edge iff the entry is not `GRAPH_INF`; the golden
/// model).
#[must_use]
pub fn golden_bfs(adj: &[u32], n: u32) -> Vec<u32> {
    let n = n as usize;
    let mut dist = vec![inputs::GRAPH_INF; n];
    dist[0] = 0;
    // Bellman–Ford with unit weights: settled after n-1 sweeps.
    for _ in 1..n {
        for u in 0..n {
            if dist[u] == inputs::GRAPH_INF {
                continue;
            }
            for vtx in 0..n {
                if u != vtx && adj[u * n + vtx] != inputs::GRAPH_INF {
                    dist[vtx] = dist[vtx].min(dist[u] + 1);
                }
            }
        }
    }
    dist
}

/// Strict-BSP parallel BFS: node `u` is owned by core `u % ncores`;
/// each superstep every core relaxes its owned nodes' out-edges over
/// its local distance array, sends the full array to every peer, and
/// blocks until it has min-merged one round-`r` array from each peer
/// (counted per sender, so supersteps stay aligned). `n` supersteps
/// propagate any shortest path. Core 0 then publishes its distances.
#[must_use]
pub fn bfs(scale: Scale) -> Workload {
    let n = bfs_nodes(scale);
    let adj = inputs::adjacency_matrix(n, BFS_SEED);
    let dist0 = golden_bfs(&adj, n);
    let expected = inputs::words_to_be_bytes(&dist0);

    let inf = i64::from(inputs::GRAPH_INF);
    let nn = i64::from(n);

    let mut init = vec![inputs::GRAPH_INF; n as usize];
    init[0] = 0;

    // bfs_merge(): min-merge the delivered distance array into
    // bfs_dist and count the sender's round. Payload reads stay inside
    // this call, before the caller's mesh_rx_release.
    let merge_fn = FunctionDef::new("bfs_merge", [] as [&str; 0]).body([
        Stmt::let_("src", mb(mailbox::RX_SRC).load_word()),
        Stmt::for_(
            "k",
            lit(0),
            lit(nn),
            [
                Stmt::let_("da", Expr::global("bfs_dist") + v("k") * lit(4)),
                Stmt::store_word(
                    v("da"),
                    v("da")
                        .load_word()
                        .min((mb(mailbox::RX_DATA) + v("k") * lit(4)).load_word()),
                ),
            ],
        ),
        Stmt::let_("sa", Expr::global("bfs_seen") + v("src") * lit(4)),
        Stmt::store_word(v("sa"), v("sa").load_word() + lit(1)),
        Stmt::ret_void(),
    ]);

    // bfs_drain(): consume every waiting delivery. Called from every
    // blocking wait so the all-to-all exchange cannot deadlock.
    let drain_fn = FunctionDef::new("bfs_drain", [] as [&str; 0]).body([
        Stmt::while_(
            Expr::call("mesh_rx_ready", []).ne(lit(0)),
            [
                Stmt::call("bfs_merge", []),
                Stmt::call("mesh_rx_release", []),
            ],
        ),
        Stmt::ret_void(),
    ]);

    // bfs_all_seen(round, me, ncores): 1 once every peer's counter has
    // reached `round`.
    let seen_fn = FunctionDef::new("bfs_all_seen", ["round", "me", "ncores"]).body([
        Stmt::let_("ok", lit(1)),
        Stmt::for_(
            "c",
            lit(0),
            v("ncores"),
            [Stmt::if_(
                v("c").ne(v("me")),
                [Stmt::if_(
                    (Expr::global("bfs_seen") + v("c") * lit(4))
                        .load_word()
                        .lt_s(v("round")),
                    [Stmt::assign("ok", lit(0))],
                )],
            )],
        ),
        Stmt::ret(v("ok")),
    ]);

    let mut body = Vec::new();
    emit_identity(&mut body);

    // One superstep: relax, broadcast, then wait for all peers.
    let relax = Stmt::while_(
        v("u").lt_s(lit(nn)),
        [
            Stmt::let_(
                "du",
                (Expr::global("bfs_dist") + v("u") * lit(4)).load_word(),
            ),
            Stmt::for_(
                "t",
                lit(0),
                lit(nn),
                [Stmt::if_(
                    (Expr::global("bfs_adj") + (v("u") * lit(nn) + v("t")) * lit(4))
                        .load_word()
                        .ne(lit(inf))
                        & v("u").ne(v("t")),
                    [
                        Stmt::let_("ta", Expr::global("bfs_dist") + v("t") * lit(4)),
                        Stmt::store_word(v("ta"), v("ta").load_word().min(v("du") + lit(1))),
                    ],
                )],
            ),
            Stmt::assign("u", v("u") + v("ncores")),
        ],
    );

    let mut send_one = Vec::new();
    emit_wait_tx(&mut send_one, vec![Stmt::call("bfs_drain", [])]);
    send_one.push(Stmt::for_(
        "k",
        lit(0),
        lit(nn),
        [Stmt::store_word(
            mb(mailbox::TX_DATA) + v("k") * lit(4),
            (Expr::global("bfs_dist") + v("k") * lit(4)).load_word(),
        )],
    ));
    send_one.push(Stmt::call("mesh_commit", [v("dst"), lit(nn)]));

    let broadcast = Stmt::for_(
        "dst",
        lit(0),
        v("ncores"),
        [Stmt::if_(v("dst").ne(v("me")), send_one)],
    );

    let barrier = Stmt::while_(
        Expr::call("bfs_all_seen", [v("round"), v("me"), v("ncores")]).eq(lit(0)),
        [Stmt::call("bfs_drain", [])],
    );

    body.push(Stmt::for_(
        "round",
        lit(1),
        lit(nn) + lit(1),
        [Stmt::let_("u", v("me")), relax, broadcast, barrier],
    ));

    // Core 0 publishes the converged distances.
    body.push(Stmt::if_(
        v("me").eq(lit(0)),
        [Stmt::for_(
            "k",
            lit(0),
            lit(nn),
            [Stmt::store_word(
                Expr::global("bfs_out") + v("k") * lit(4),
                (Expr::global("bfs_dist") + v("k") * lit(4)).load_word(),
            )],
        )],
    ));

    let mut program = Program::new()
        .global(mailbox_global())
        .global(Global::with_words("bfs_adj", &adj))
        .global(Global::with_words("bfs_dist", &init))
        .global(Global::zeroed("bfs_seen", 64 * 4))
        .global(Global::zeroed("bfs_out", n * 4))
        .function(merge_fn)
        .function(drain_fn)
        .function(seen_fn)
        .function(FunctionDef::new("mesh_bfs_main", [] as [&str; 0]).body(body));
    for f in helper_functions() {
        program = program.function(f);
    }

    Workload {
        name: "mesh_bfs".to_owned(),
        description: format!(
            "strict-BSP unit-weight BFS over a {n}-node graph, all-to-all frontier exchange"
        ),
        program,
        entry: "mesh_bfs_main".to_owned(),
        output_global: "bfs_out".to_owned(),
        expected,
    }
}

// ----------------------------------------------------------------------
// AES-CTR streams
// ----------------------------------------------------------------------

/// Mesh AES-CTR block counts per scale.
#[must_use]
pub fn aes_ctr_blocks(scale: Scale) -> u32 {
    match scale {
        Scale::Test => 16,
        Scale::Paper => 256,
    }
}

/// The 12-byte CTR nonce (the counter block is `nonce ‖ be32(b)`).
pub const CTR_NONCE: [u8; 12] = *b"EPIC-CTR-IV.";

/// The deterministic plaintext stream (xorshift bytes).
#[must_use]
pub fn ctr_plaintext(nblocks: u32) -> Vec<u8> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    (0..nblocks * 16)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        })
        .collect()
}

/// The expected AES-128-CTR ciphertext (the golden model).
#[must_use]
pub fn golden_ctr(nblocks: u32) -> Vec<u8> {
    let w = aes::golden_key_expansion(aes::KEY);
    let pt = ctr_plaintext(nblocks);
    let mut out = Vec::with_capacity(pt.len());
    for b in 0..nblocks {
        let mut counter = [0u8; 16];
        counter[..12].copy_from_slice(&CTR_NONCE);
        counter[12..].copy_from_slice(&b.to_be_bytes());
        let ks = aes::golden_encrypt(&counter, &w);
        for i in 0..16 {
            out.push(pt[(b * 16 + i as u32) as usize] ^ ks[i]);
        }
    }
    out
}

/// AES-128-CTR sharded per core: every core expands the key itself,
/// encrypts the counter blocks it owns (`b % ncores == me`) and XORs
/// the keystream into the plaintext; workers ship each ciphertext
/// block to core 0 as `[b, 4 words]`.
#[must_use]
pub fn aes_ctr(scale: Scale) -> Workload {
    let nblocks = aes_ctr_blocks(scale);
    let expected = golden_ctr(nblocks);
    let pt = ctr_plaintext(nblocks);
    let nb = i64::from(nblocks);

    // ctr_block(b): keystream = E(nonce ‖ be32(b)), ciphertext into
    // ctr_out[b*16..]. The AES rounds reuse the Table 1 benchmark's
    // emitters (state in locals s0..s15, table-driven rounds).
    let mut enc = Vec::new();
    for (i, byte) in CTR_NONCE.iter().enumerate() {
        enc.push(Stmt::let_(aes::s_name(i), lit(i64::from(*byte))));
    }
    enc.push(Stmt::let_(aes::s_name(12), v("b").shr(lit(24)) & lit(0xff)));
    enc.push(Stmt::let_(aes::s_name(13), v("b").shr(lit(16)) & lit(0xff)));
    enc.push(Stmt::let_(aes::s_name(14), v("b").shr(lit(8)) & lit(0xff)));
    enc.push(Stmt::let_(aes::s_name(15), v("b") & lit(0xff)));
    aes::emit_add_round_key(&mut enc, &lit(0));
    for round in 1..=10 {
        aes::emit_sub_bytes(&mut enc, "aes_sbox");
        aes::emit_shift_rows(&mut enc, false);
        if round != 10 {
            aes::emit_mix_columns(&mut enc);
        }
        aes::emit_add_round_key(&mut enc, &lit(round));
    }
    enc.push(Stmt::let_("obase", v("b") * lit(16)));
    for i in 0..16usize {
        enc.push(Stmt::store_byte(
            Expr::global("ctr_out") + v("obase") + lit(i as i64),
            v(&aes::s_name(i))
                ^ (Expr::global("ctr_pt") + v("obase") + lit(i as i64)).load_byte_u(),
        ));
    }
    enc.push(Stmt::ret_void());
    let block_fn = FunctionDef::new("ctr_block", ["b"]).body(enc);

    let mut body = Vec::new();
    emit_identity(&mut body);
    aes::emit_key_expansion(&mut body);

    let mut own_loop = vec![Stmt::call("ctr_block", [v("b")])];
    let mut send = Vec::new();
    emit_wait_tx(&mut send, vec![]);
    send.push(Stmt::store_word(mb(mailbox::TX_DATA), v("b")));
    for k in 0..4i64 {
        send.push(Stmt::store_word(
            mb(mailbox::TX_DATA + 1) + lit(k * 4),
            (Expr::global("ctr_out") + v("b") * lit(16) + lit(k * 4)).load_word(),
        ));
    }
    send.push(Stmt::call("mesh_commit", [lit(0), lit(5)]));
    own_loop.push(Stmt::if_(v("me").ne(lit(0)), send));
    own_loop.push(Stmt::assign("b", v("b") + v("ncores")));
    body.push(Stmt::let_("b", v("me")));
    body.push(Stmt::while_(v("b").lt_s(lit(nb)), own_loop));

    let mut recv = Vec::new();
    emit_wait_rx(&mut recv);
    recv.push(Stmt::let_("rb", mb(mailbox::RX_DATA).load_word()));
    for k in 0..4i64 {
        recv.push(Stmt::store_word(
            Expr::global("ctr_out") + v("rb") * lit(16) + lit(k * 4),
            (mb(mailbox::RX_DATA + 1) + lit(k * 4)).load_word(),
        ));
    }
    recv.push(Stmt::call("mesh_rx_release", []));
    let own = (lit(nb) + v("ncores") - lit(1)).div(v("ncores"));
    body.push(Stmt::if_(
        v("me").eq(lit(0)),
        [
            Stmt::let_("expect", lit(nb) - own),
            Stmt::let_("got", lit(0)),
            Stmt::while_(v("got").lt_s(v("expect")), {
                let mut r = recv;
                r.push(Stmt::assign("got", v("got") + lit(1)));
                r
            }),
        ],
    ));

    let mut program = Program::new()
        .global(mailbox_global())
        .global(Global::with_bytes("aes_key", aes::KEY.to_vec()))
        .global(Global::with_bytes("aes_sbox", aes::SBOX.to_vec()))
        .global(Global::with_bytes("aes_rcon", aes::RCON.to_vec()))
        .global(Global::with_bytes(
            "aes_mul2",
            aes::gf_mul_table(2).to_vec(),
        ))
        .global(Global::with_bytes(
            "aes_mul3",
            aes::gf_mul_table(3).to_vec(),
        ))
        .global(Global::zeroed("aes_rk", 44 * 4))
        .global(Global::with_bytes("ctr_pt", pt))
        .global(Global::zeroed("ctr_out", nblocks * 16))
        .function(block_fn)
        .function(FunctionDef::new("mesh_aesctr_main", [] as [&str; 0]).body(body));
    for f in helper_functions() {
        program = program.function(f);
    }

    Workload {
        name: "mesh_aesctr".to_owned(),
        description: format!("AES-128-CTR over {nblocks} blocks, block space sharded per core"),
        program,
        entry: "mesh_aesctr_main".to_owned(),
        output_global: "ctr_out".to_owned(),
        expected,
    }
}

/// All mesh workloads at the given scale.
#[must_use]
pub fn all(scale: Scale) -> Vec<Workload> {
    vec![dct(scale), bfs(scale), aes_ctr(scale)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_ir::{lower, Interpreter};

    /// Every mesh program also runs standalone: the mailbox reads
    /// zero, the core clamps to a 1×1 "mesh" and does all the work.
    #[test]
    fn mesh_programs_match_golden_standalone() {
        for w in all(Scale::Test) {
            let module = lower::lower(&w.program).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let mut interp = Interpreter::new(&module);
            interp
                .call(&w.entry, &[])
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            w.verify_memory(|addr, len| interp.read_bytes(addr, len).map(<[u8]>::to_vec))
                .unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn golden_bfs_has_source_zero_and_monotone_frontier() {
        let n = bfs_nodes(Scale::Test);
        let adj = inputs::adjacency_matrix(n, BFS_SEED);
        let dist = golden_bfs(&adj, n);
        assert_eq!(dist[0], 0);
        // Some node must be directly reachable in this dense graph.
        assert!(dist.contains(&1));
        // Any finite distance d > 0 needs a predecessor at d - 1.
        for (t, &d) in dist.iter().enumerate() {
            if d == 0 || d == inputs::GRAPH_INF {
                continue;
            }
            let n = n as usize;
            assert!(
                (0..n).any(|u| dist[u] == d - 1 && u != t && adj[u * n + t] != inputs::GRAPH_INF),
                "node {t} at distance {d} lacks a predecessor"
            );
        }
    }

    #[test]
    fn ctr_golden_is_a_keystream_xor() {
        let nblocks = aes_ctr_blocks(Scale::Test);
        let ct = golden_ctr(nblocks);
        let pt = ctr_plaintext(nblocks);
        assert_eq!(ct.len(), pt.len());
        // Distinct counter blocks give distinct keystream blocks.
        let ks: Vec<u8> = ct.iter().zip(&pt).map(|(c, p)| c ^ p).collect();
        assert_ne!(ks[0..16], ks[16..32]);
    }
}
