import json

import numpy as np
import pytest

from wmcevrp.generator import GenParams, generate_instance
from wmcevrp.model import INSTANCE_FIELDS, Instance


class TestGenerateInstance:
    def test_single_customer_shape(self):
        inst = generate_instance(1, seed=0)
        assert inst.dist.shape == (3, 3)
        assert len(inst.demand) == 1
        assert inst.demand[0] in (1, 2, 3)

    def test_matrix_is_symmetric_with_cloned_depot(self):
        inst = generate_instance(9, seed=5)
        assert np.array_equal(inst.dist, inst.dist.T)
        assert np.array_equal(inst.dist[-1], inst.dist[0])
        assert not np.diagonal(inst.dist).any()
        off = inst.dist[np.triu_indices(inst.n + 1, k=1)]
        assert ((off >= 100.0) & (off <= 1000.0)).all()

    def test_parameter_conventions_in_emitted_json(self):
        data = generate_instance(5, seed=3).to_json()
        assert data["gamma"] == 2 * data["rho_t"]
        assert data["rho_c"] == 2 * data["rho_e"]
        assert data["phi"] == data["rho_t"]
        assert data["max_mtev"] == data["max_mct"] == 5

    def test_demands_within_bounds(self):
        inst = generate_instance(40, seed=8)
        assert set(inst.demand) <= {1, 2, 3}

    def test_same_seed_same_instance(self):
        a = generate_instance(12, seed=99)
        b = generate_instance(12, seed=99)
        assert a.to_json() == b.to_json()
        c = generate_instance(12, seed=100)
        assert c.to_json() != a.to_json()

    def test_round_trip_is_bit_identical(self, tmp_path):
        inst = generate_instance(7, seed=42)
        path = tmp_path / "it.json"
        inst.save(path)
        text1 = path.read_text()
        again = Instance.load(path)
        again.save(path)
        assert path.read_text() == text1
        assert json.loads(text1) == inst.to_json()

    def test_overrides(self):
        inst = generate_instance(4, seed=1, P=555.0, rho_c=77.0)
        assert inst.P == 555.0
        assert inst.rho_c == 77.0

    def test_explicit_params_object(self):
        # Every resolved GenParams field that names an Instance field lands
        # on the instance, and max_mtev resolves to n when left unset.
        params = GenParams(P=640.0, Q=4.0, max_mct=2).resolved(6)
        inst = generate_instance(6, seed=2, P=640.0, Q=4.0, max_mct=2)
        assert inst.P == 640.0
        assert inst.Q == 4.0
        assert inst.max_mct == 2
        assert inst.max_mtev == 6
        for name, value in vars(params).items():
            if name in INSTANCE_FIELDS:
                assert getattr(inst, name) == value

    def test_rejects_empty_instance(self):
        with pytest.raises(ValueError):
            generate_instance(0, seed=0)
