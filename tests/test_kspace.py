import numpy as np
import pytest
from oracles import make_bandlimited_image

from mcsr.errors import InputError
from mcsr.kspace import (central_mask, degrade, fft2_centered, ifft2_centered,
                         zero_fill_upsample)


class TestCenteredFft:
    def test_zero_image(self):
        assert np.all(fft2_centered(np.zeros((8, 8))) == 0.0)

    def test_constant_concentrates_at_center(self):
        kspace = fft2_centered(np.full((8, 8), 0.5))
        assert abs(kspace[4, 4] - 0.5 * 64) <= 1e-9
        off_center = kspace.copy()
        off_center[4, 4] = 0.0
        assert np.max(np.abs(off_center)) <= 1e-9

    def test_round_trip_and_parseval(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            h = int(rng.integers(4, 17))
            w = int(rng.integers(4, 17))
            image = rng.uniform(size=(h, w))
            back = ifft2_centered(fft2_centered(image))
            assert np.max(np.abs(back - image)) <= 1e-6 * max(1.0, np.max(np.abs(image)))
            energy_image = float(np.sum(image**2))
            energy_k = float(np.sum(np.abs(fft2_centered(image)) ** 2)) / (h * w)
            assert abs(energy_image - energy_k) <= 1e-5 * energy_image

    def test_dc_position_odd_sizes(self):
        image = np.full((5, 7), 1.0)
        kspace = fft2_centered(image)
        assert abs(kspace[2, 3] - 35.0) <= 1e-9


class TestCentralMask:
    def test_fraction_uf2(self):
        mask = central_mask(256, 256, 2)
        assert mask.mean() == 0.25
        assert mask[128, 128]

    def test_fraction_uf4(self):
        mask = central_mask(256, 256, 4)
        assert mask.mean() == 0.0625

    def test_uf1_all_true(self):
        assert np.all(central_mask(16, 16, 1))

    def test_indivisible_rejected(self):
        with pytest.raises(InputError):
            central_mask(30, 30, 4)

    def test_unsupported_factor_rejected(self):
        with pytest.raises(InputError):
            central_mask(32, 32, 3)

    def test_rotation_symmetry(self):
        for uf in (2, 4):
            mask = central_mask(64, 64, uf)
            assert np.array_equal(mask, np.flip(mask))


class TestDegrade:
    def test_constant_preserved(self):
        lr = degrade(np.full((16, 16), 0.5), 4)
        assert lr.shape == (4, 4)
        assert np.max(np.abs(lr - 0.5)) <= 1e-6

    def test_sizes_at_uf4(self):
        assert degrade(np.zeros((256, 256)), 4).shape == (64, 64)

    def test_bandlimited_round_trip(self):
        rng = np.random.default_rng(1)
        for uf in (2, 4):
            hr = make_bandlimited_image(32, 32, uf, rng)
            lr = degrade(hr, uf)
            assert np.max(np.abs(zero_fill_upsample(lr, uf) - hr)) <= 1e-5

    def test_spectral_idempotence(self):
        # Holds when the zero-filled reconstruction is real and non-negative,
        # i.e. for a bandlimited LR; the magnitude step voids it otherwise.
        rng = np.random.default_rng(2)
        hr = make_bandlimited_image(32, 32, 4, rng)
        lr = degrade(hr, 4)
        again = degrade(zero_fill_upsample(lr, 4), 4)
        assert np.max(np.abs(again - lr)) <= 1e-6

    def test_indivisible_rejected(self):
        with pytest.raises(InputError):
            degrade(np.zeros((30, 30)), 4)


class TestZeroFill:
    def test_constant_preserved(self):
        out = zero_fill_upsample(np.full((8, 8), 0.25), 4)
        assert out.shape == (32, 32)
        assert np.max(np.abs(out - 0.25)) <= 1e-6

    def test_shape_at_uf4(self):
        assert zero_fill_upsample(np.zeros((64, 64)), 4).shape == (256, 256)

    @pytest.mark.parametrize("uf", [0, -1, 3])
    def test_unsupported_factor_rejected(self, uf):
        with pytest.raises(InputError, match="upsampling factor must be one of"):
            zero_fill_upsample(np.zeros((16, 16)), uf)


# each factor's function call on a 16x16 grid: the HR image, the LR image, or the mask size
FACTOR_USERS = {
    "central_mask": lambda uf: central_mask(16, 16, uf),
    "degrade": lambda uf: degrade(np.zeros((16, 16)), uf),
    "zero_fill_upsample": lambda uf: zero_fill_upsample(np.zeros((8, 8)), uf),
}


@pytest.mark.parametrize("name", sorted(FACTOR_USERS))
@pytest.mark.parametrize("uf", [2.0, 2.5, True, np.float64(2.0)], ids=repr)
def test_non_integer_factor_rejected(name, uf):
    # 2.0 used to pass the factor check and raise a raw TypeError, and True ran as UF 1
    with pytest.raises(InputError, match="upsampling factor must be one of"):
        FACTOR_USERS[name](uf)


@pytest.mark.parametrize("name", sorted(FACTOR_USERS))
@pytest.mark.parametrize("uf", [None, object()], ids=["None", "object"])
def test_non_number_factor_rejected(name, uf):
    # zero_fill_upsample used to multiply the LR size by the factor before checking it
    with pytest.raises(InputError, match="upsampling factor must be one of"):
        FACTOR_USERS[name](uf)


@pytest.mark.parametrize("name", sorted(FACTOR_USERS))
@pytest.mark.parametrize("uf", [2, np.int64(2), np.uint8(2)], ids=repr)
def test_python_and_numpy_integer_factors_accepted(name, uf):
    assert np.array_equal(FACTOR_USERS[name](uf), FACTOR_USERS[name](2))
