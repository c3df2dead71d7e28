"""The transform identity: closed classical sums, the decomposition-number
expansion, golden displayed transforms, and brute-force poset checks."""

import hashlib

import pytest

from catwb.exactmath import MPoly
from catwb.fmverify import fm_lhs, fm_lhs_closed_classical, verify_fm, verify_fm_dn_general
from catwb.ftriangle import f_closed
from catwb.ncposet import m_triangle_formula
from catwb.rootdata import ir

import closed_form_reference as ref
from golden import GOLDEN_TRANSFORMS, golden_transform_i2
from mpoly_reference import M

# sha256 of `MPoly.dumps()` of (f_closed(t), fm_lhs(t)) for every type the
# `verify --suite all` campaign checks, and of m_triangle_formula(t) for
# the types it checks in formula mode; pinned so that a change to the
# coefficient arithmetic shows up as a changed digest
F_AND_LHS_SHA256 = {
    "A1": ("24b5f9de6b72c7cadfedb4387b0106683fad59c8003e71e6c8f0defbc3e20e2e", "37f68dcfa6293f4930bdeeb98371d2b1dc8d7917e375469baa8ca481441d2b55"),
    "A2": ("cb2d7bf566a136b82495a13370401f07793705f7c6aa11f66478566573b480e0", "21b4bdaeb6dcc19cb547f9d7840ba678ef538cd517e023eb13346f1e6b30ad63"),
    "A3": ("917d89e8a9cb876abc0a45f8a446e9a66d2c457565a637b426c8286845b2ca9c", "819c22258230959532133358a7479d687a53e885d4d8214e293819b02922f586"),
    "A4": ("2f0d285df854fa97f5579329dfb8734a958e178e71dc9812ff1e8ad5698ada9f", "b155a28edb7fc4d2feff5c8843a025dd9592b316dc29ca43523c8eb251a1753f"),
    "A5": ("32143e729571a6dcb121f41916e287cd10942c05425b3173d02dac643036b359", "dbce0fe8cf548e17a5138f38d64d0b26391d97693a7c98de949f2f7b71c5e1c4"),
    "A6": ("af2221dae244d026733b7d526f8a326d1b60f2279c901004ad3ea6b9ca4561b2", "b5ccfb43574d60a20deb4537c8fc099677301dcadefd909d627958c341681053"),
    "A7": ("cf3d0bf8570a9150b22b0986f9949c5c3d65074d4b8e1f05c11a63abdf025c8e", "36978ff0f647f8593abdad8234dbc53f6c1a7033d40af4c88604ff060709a68f"),
    "A8": ("2608439279267ca3fe104d2f4f898dc24997365b40e490ae678588eda1621bbc", "370c9a21db8eefeb38444eb410ddc1122a318aa07c9ca13a4fc4fa29b7edc7f6"),
    "B2": ("95ac9a81e5173b07feb38eee22f1c0902e8d505b89e0bbd2d84baf8a1b69a7a2", "28478fe5bfd24b164ce329a4c18e57a0308ee7fddf005c070a096894f5186a05"),
    "B3": ("9c18094a08936c36766cce4db5604acc0a9db6c77cb40f0a6060e1846b6817b5", "0f8b1192b3a7139eae8633f943ddd700ce91c776da0a5bf628be557813143260"),
    "B4": ("4272ca90ee567efb58ece6e62a25c3006a98be6b583ef7e73ff2143570293a25", "09e0691a127c11148cf666183abd2eccf94461e8a81c31359522678026f396a8"),
    "B5": ("6ddb8d5ebb4de4fa1025c0f4aab78973591ed6cc5a4ca2fbde31ae225ccbba0b", "ba44fba8f5ad9c23a77c4acd9f68d9bc5adaf2f6e7e49cc1f3f2e496ce729d6d"),
    "B6": ("f8a79157acfce8f92fd46651a6de047fd4777434533e3945d5b75c3a15e4a45b", "6ad80571706c233c26fa4f6c33905f30da5266fb0dfb0e4d39a354cefab8e4ec"),
    "B7": ("29d33a9b0b3261da48ea1f2c93ee8d40deacaf12a535b56853414043c7215f03", "2b381bcb73e97885301b917c1fe16e53b38e036079ed5e29c5874fabdf70e76b"),
    "B8": ("944680f46b515bd5727171e2922a39afdb88df931290078d53dc6bf359f337b5", "a40bc4840192bf0c61588590523e61dc20d37f65619d8ebf0bf64ebf8c0e0f28"),
    "D4": ("b305f7309f4d5396dc6f7279062cbd602f689c43e27b80f6a0974bec98d71101", "ec39884919e821aac017bc258ef735dca7c3218a73c8c80530a57206f6d566e7"),
    "D5": ("2b82a0d17840ca27d84481958d346a6db23174e408e8856a7bfc2108425a859b", "53654f1a101865f0894eb2598955b5d8f19275d433ee0193416efa93c4ab20c8"),
    "D6": ("ecee40745f8fcebe433b4fd517ec5f38b18354059ebdc896d1f32cd2e58aa0d8", "89552c4bda59196c65b0c57b9a16878a3d1b0cba72376d45b3f21ed14d26275c"),
    "D7": ("6e970226ef52bd287e3d88ccb0c93d80e37ee8f757c36cdc3f3eb756e770332a", "53cbfe1f43e0fb4141baed869f461bb00ada40f50c4a2d6b4f3b77fc6160e055"),
    "D8": ("3deeeaf0be78e08fde9913698e7e7bb796a1b4794bd72df6d8fcc7c127aaf051", "92f93c91384ab01f6ff54294c96f0225f8d1d5ac0c3c95e3e721c802c8c5e732"),
    "I2(3)": ("cb2d7bf566a136b82495a13370401f07793705f7c6aa11f66478566573b480e0", "21b4bdaeb6dcc19cb547f9d7840ba678ef538cd517e023eb13346f1e6b30ad63"),
    "I2(4)": ("95ac9a81e5173b07feb38eee22f1c0902e8d505b89e0bbd2d84baf8a1b69a7a2", "28478fe5bfd24b164ce329a4c18e57a0308ee7fddf005c070a096894f5186a05"),
    "I2(5)": ("80d087dc34b7f733a330bb19e8477f1b60a316a06a1ba0dcb065aa3c83365daf", "b614df6647653e7f2550c79b4baf76ef4ebd7b0ceba5c8d3c5acf5bc7bb45da8"),
    "I2(6)": ("b7016ee8672a577dc3508d5bd489eb050b17fdd4d7ca0f219dd2645337430bf5", "fd1a7781467079749e92e54212d24f0ca2ad34fdb61a321a5e4a167516856a2d"),
    "I2(7)": ("e946bc468338b8d2739cf3906cfa63ed1a2c0fcc2240756553fbdf06bb963355", "a4cc440d5011a1aa3f92ca9f83176456d99c08a19e1cc5357ee25a3f9c210da4"),
    "I2(8)": ("694b9fbabb3445d4339eb2731d88540d0be92008bee2b82432669cd8398d4bd3", "a783190799e97b6ee304fccb2c17344d25116077ddc3fd717119a76f9b53a058"),
    "I2(9)": ("b14ec9e3df4a92a6031bfcfdcc21fe8f35c7c9a5ade8af36981b612181eca0dc", "ff0973c84e8ac1e8574b04c588024135ab7b3d1566184e666f3913e0351b3057"),
    "I2(10)": ("a3fa1a7b58e24304c543c639052e511220d192dd1216451be911d83d98f661b0", "905760fc9c82d8d1e0efffa9f18e90075581cf09ef7d807f987df381f2307efd"),
    "H3": ("117acff0d68212fa3308b82402cf6f35ef22aabed8faa0fb3fd516345a9db2b1", "cc8494038edca3d42ce422766adbf7d1b8f4029d0fc02a9970501031a4061b7d"),
    "H4": ("4abb4353428fbc0b29db97d59014a4d7530f712a555427122e25b0ceaa4ac01b", "1d276f5ed6f904a902774bb26b83ac7452c992355b21978599e548e1822f60d4"),
    "F4": ("80b80d3ba52cc7faf7061b567b8e0e14b7423204373311039c68f6e09f56f21e", "f128e4a536e143297ddda7644c9a0f7403aef9baa22de24648d98d1ac09fc5c2"),
    "E6": ("4d493e3c20b47378a37aa61ecea9cabc6b85a7b28fe07857b1f9e1a3819e0495", "56c1a6809956bd26a2a0ba28f301e6734ba7fb4ea703ba0ebece2f1480c6f8bb"),
    "E7": ("3b87bbd1011eb2096c42c08e649c342a1748dea83a4550d69b2c3f716b9eb624", "db9fa77130a3c022fd6a88e1bdd354695a505ebda086d1c6dde9a489dcd35cf3"),
    "E8": ("aba92680e07fe46acd73f111224e833ba2b9f4cf4c39518fe6846acfeaa00f98", "144d79539b880f03664c84525563ee6c57c03d32ba287b2eaffe0190aa131410"),
}
M_FORMULA_SHA256 = {
    "I2(3)": "21b4bdaeb6dcc19cb547f9d7840ba678ef538cd517e023eb13346f1e6b30ad63",
    "I2(4)": "28478fe5bfd24b164ce329a4c18e57a0308ee7fddf005c070a096894f5186a05",
    "I2(5)": "b614df6647653e7f2550c79b4baf76ef4ebd7b0ceba5c8d3c5acf5bc7bb45da8",
    "I2(6)": "fd1a7781467079749e92e54212d24f0ca2ad34fdb61a321a5e4a167516856a2d",
    "I2(7)": "a4cc440d5011a1aa3f92ca9f83176456d99c08a19e1cc5357ee25a3f9c210da4",
    "I2(8)": "a783190799e97b6ee304fccb2c17344d25116077ddc3fd717119a76f9b53a058",
    "H3": "cc8494038edca3d42ce422766adbf7d1b8f4029d0fc02a9970501031a4061b7d",
    "H4": "1d276f5ed6f904a902774bb26b83ac7452c992355b21978599e548e1822f60d4",
    "F4": "f128e4a536e143297ddda7644c9a0f7403aef9baa22de24648d98d1ac09fc5c2",
    "E6": "56c1a6809956bd26a2a0ba28f301e6734ba7fb4ea703ba0ebece2f1480c6f8bb",
}


def sha256_of(poly: MPoly) -> str:
    return hashlib.sha256(poly.dumps().encode()).hexdigest()


class TestLhs:
    def test_a1(self):
        assert fm_lhs(ir("A1")) == 1 + M * MPoly.term(1, 0) + M * MPoly.term(1, 1)
        assert fm_lhs_closed_classical(ir("A1")) == fm_lhs(ir("A1"))

    def test_memoised_per_type(self):
        assert fm_lhs(ir("A1")) is fm_lhs(ir("A1"))
        assert fm_lhs(ir("I2(3)")) is fm_lhs(ir("A2"))

    @pytest.mark.parametrize(
        "s", [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]
    )
    def test_closed_classical_matches_the_fraction_form(self, s):
        assert fm_lhs_closed_classical(ir(s)).terms == ref.fm_lhs_closed_classical(ir(s)).terms

    def test_golden_i2(self):
        for a in range(3, 11):
            assert fm_lhs(ir(f"I2({a})")) == golden_transform_i2(a)

    @pytest.mark.parametrize("s", ["H3", "H4", "F4", "E6"])
    def test_golden_exceptional(self, s):
        assert fm_lhs(ir(s)) == GOLDEN_TRANSFORMS[s]


class TestModes:
    @pytest.mark.parametrize("s", ["A1", "A2", "A3", "B2", "B3", "D4", "D5"])
    def test_closed(self, s):
        assert verify_fm(ir(s), "closed").equal

    @pytest.mark.parametrize("s", ["I2(3)", "I2(7)", "A2", "B2", "H3", "F4"])
    def test_formula(self, s):
        assert verify_fm(ir(s), "formula").equal

    @pytest.mark.parametrize(
        "s,m", [("A2", 1), ("A3", 2), ("B2", 3), ("I2(5)", 2), ("H3", 2), ("D4", 1)]
    )
    def test_brute(self, s, m):
        assert verify_fm(ir(s), "brute", m).equal

    def test_brute_e7_with_the_caps_raised(self):
        # E7's brute-force witness: NC(E7) has 4,160 elements, past the default
        # group cap (|W| = 2,903,040) and poset cap (4,160^2 pairs)
        assert verify_fm(ir("E7"), "brute", 1, group_cap=10**7, poset_cap=10**8).equal

    def test_brute_requires_m(self):
        with pytest.raises(ValueError):
            verify_fm(ir("A2"), "brute")


class TestDnGeneral:
    def test_proven_case(self):
        rep = verify_fm_dn_general(4, 1)
        assert rep.equal
        assert "proven" in rep.note

    def test_open_case_reported(self):
        rep = verify_fm_dn_general(4, 2)
        assert rep.m == 2
        assert "empirical" in rep.note
        assert isinstance(rep.equal, bool)  # recorded, not asserted

    def test_alias_reduces_to_type_a(self):
        for m in (1, 2, 3):
            rep = verify_fm_dn_general(2, m)
            assert rep.type == "A1xA1"
            assert rep.equal

    def test_rank_five_proven_case(self):
        rep = verify_fm_dn_general(5, 1)
        assert rep.equal


class TestPinnedBytes:
    @pytest.mark.parametrize("s", list(F_AND_LHS_SHA256))
    def test_f_closed_and_fm_lhs(self, s):
        got = (sha256_of(f_closed(ir(s))), sha256_of(fm_lhs(ir(s))))
        assert got == F_AND_LHS_SHA256[s]

    @pytest.mark.parametrize("s", list(M_FORMULA_SHA256))
    def test_m_triangle_formula(self, s):
        assert sha256_of(m_triangle_formula(ir(s))) == M_FORMULA_SHA256[s]
