"""DeterministicRng state capture: getstate/setstate round-trips exactly."""

import pickle

from repro.crypto.rng import DeterministicRng


class TestStateRoundTrip:
    def test_setstate_resumes_the_same_stream(self):
        rng = DeterministicRng(42)
        for _ in range(100):
            rng.random()
        state = rng.getstate()
        expected = [rng.randint(0, 1_000_000) for _ in range(50)]
        rng.setstate(state)
        assert [rng.randint(0, 1_000_000) for _ in range(50)] == expected

    def test_state_restores_into_a_fresh_instance(self):
        source = DeterministicRng(7)
        source.token_bytes(33)
        state = source.getstate()
        twin = DeterministicRng(999)  # different seed: state must win
        twin.setstate(state)
        assert twin.token_bytes(16) == source.token_bytes(16)

    def test_state_survives_pickle(self):
        """Checkpoint blobs carry rng states across processes as pickles."""
        rng = DeterministicRng(2017)
        for _ in range(10):
            rng.expovariate(1.0)
        state = pickle.loads(pickle.dumps(rng.getstate()))
        expected = rng.getrandbits(64)
        rng.setstate(state)
        assert rng.getrandbits(64) == expected

    def test_restored_rng_forks_identically(self):
        """Fork derivation depends on the seed, which restore preserves."""
        rng = DeterministicRng(11)
        rng.random()
        state = rng.getstate()
        fresh = DeterministicRng(11)
        fresh.setstate(state)
        assert fresh.fork("oram").random() == rng.fork("oram").random()

    def test_state_does_not_alias_the_generator(self):
        """Drawing after getstate must not mutate the captured state."""
        rng = DeterministicRng(3)
        state = rng.getstate()
        first = rng.random()
        rng.random()
        rng.setstate(state)
        assert rng.random() == first
