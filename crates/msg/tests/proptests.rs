//! Property-based tests for the message-passing substrate, on the
//! operations the solvers call: `exchange_into` and `allreduce_sum_into`.

use parfem_msg::{run_ranks, Communicator, MachineModel};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn allreduce_equals_sequential_sum(p in 1usize..6,
                                       data in prop::collection::vec(
                                           prop::collection::vec(-100.0..100.0f64, 4), 6)) {
        // Rank r contributes data[r]; the all-reduce must equal the
        // rank-ordered sequential sum exactly (bitwise).
        let data = std::sync::Arc::new(data);
        let mut expect = vec![0.0f64; 4];
        for r in 0..p {
            for (e, x) in expect.iter_mut().zip(&data[r]) {
                *e += x;
            }
        }
        let d = std::sync::Arc::clone(&data);
        let out = run_ranks(p, MachineModel::ideal(), move |c| {
            let mut buf = d[c.rank()].clone();
            c.allreduce_sum_into(&mut buf);
            buf
        });
        for r in out.results {
            prop_assert_eq!(&r, &expect);
        }
    }

    #[test]
    fn ring_messages_preserve_payload(p in 2usize..6,
                                      payload in prop::collection::vec(-1e6..1e6f64, 1..20)) {
        let payload = std::sync::Arc::new(payload);
        let pl = std::sync::Arc::clone(&payload);
        let out = run_ranks(p, MachineModel::ideal(), move |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            // Everyone swaps its rank-shifted payload with both ring
            // neighbours (one neighbour at P = 2).
            let mut ring = vec![prev, next];
            ring.sort_unstable();
            ring.dedup();
            let mine: Vec<f64> = pl.iter().map(|x| x + c.rank() as f64).collect();
            let mut got = vec![Vec::new(); ring.len()];
            c.exchange_into(&ring, &vec![mine; ring.len()], &mut got);
            (ring, got)
        });
        for (ring, got) in &out.results {
            for (&q, theirs) in ring.iter().zip(got) {
                prop_assert_eq!(theirs.len(), payload.len());
                for (g, x) in theirs.iter().zip(payload.iter()) {
                    prop_assert_eq!(*g, x + q as f64);
                }
            }
        }
    }

    #[test]
    fn virtual_time_never_decreases_with_more_work(flops_a in 1u64..1000, extra in 1u64..1000) {
        let t1 = run_ranks(1, MachineModel::ibm_sp2(), |c| {
            c.work(flops_a * 1_000);
            c.virtual_time()
        }).results[0];
        let t2 = run_ranks(1, MachineModel::ibm_sp2(), |c| {
            c.work((flops_a + extra) * 1_000);
            c.virtual_time()
        }).results[0];
        prop_assert!(t2 > t1);
    }

    #[test]
    fn exchange_is_an_involution(p in 2usize..5,
                                 payload in prop::collection::vec(-10.0..10.0f64, 3)) {
        // Exchanging twice with the same neighbour returns the own data.
        let payload = std::sync::Arc::new(payload);
        let pl = std::sync::Arc::clone(&payload);
        let out = run_ranks(p, MachineModel::ideal(), move |c| {
            let partner = c.rank() ^ 1;
            if partner >= c.size() {
                return true; // odd rank count: last rank sits out
            }
            let mine: Vec<f64> = pl.iter().map(|x| x * (c.rank() as f64 + 1.0)).collect();
            let (mut theirs, mut back) = (vec![Vec::new()], vec![Vec::new()]);
            c.exchange_into(&[partner], std::slice::from_ref(&mine), &mut theirs);
            c.exchange_into(&[partner], &theirs, &mut back);
            back[0] == mine
        });
        prop_assert!(out.results.iter().all(|&ok| ok));
    }
}
