"""Golden-output guard: SHA-256 digests of every file that CLI gen-synth
and CLI train write on one small config, of CLI train's files on a 64x64
config whose target pass spans more than one block, and of gradcheck's
stdout.

A refactor must keep these outputs byte-identical, so this test fails on
any float it moves.  A change that moves floats on purpose (reordered
sums, a new initialisation) re-records the digests -- run
``PYTHONPATH=src python tests/test_golden.py`` and paste what it prints
over DIGESTS -- and names in CHANGES.md which floats moved and why.
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from segtransfer.cli import main
from segtransfer.toy_pipeline import _block_images

CONFIG = {"image_size": 16, "source_count": 12, "target_count": 8, "epochs": 3,
          "learning_rate": 0.5, "eta": 0.01, "mu": 0.01}
# 64x64 images: the target pass forwards these 5 target images in more than
# one block, and with fewer target images than a batch holds source images
# the target side of every batch wraps around
BLOCKED = {"image_size": 64, "source_count": 6, "target_count": 5, "batch_size": 8,
           "epochs": 2, "learning_rate": 0.5, "eta": 0.01, "mu": 0.01}
DATASETS = {"data": CONFIG, "blocked": BLOCKED}
REFINE_GATE = {"refine_by_classification": True, "gate_by_image_label": True}
# run name -> (dataset, config keys over its config, extra train flags)
TRAIN_RUNS = {
    "train full": ("data", {}, []),
    "train bl": ("data", {}, ["--no-pl", "--no-srt", "--no-adv"]),
    "train refine+gate": ("data", REFINE_GATE, []),
    "blocked train full": ("blocked", {}, []),
    "blocked train refine+gate": ("blocked", REFINE_GATE, []),
}


def _tree_digests(root):
    digests = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                digests[rel] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(digests.items()))


def current_digests(work):
    """run name -> {relative path: digest}, gradcheck -> digest of stdout."""
    def config(name, doc):
        path = os.path.join(work, name + ".json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    for name, base in DATASETS.items():
        data = os.path.join(work, name)
        assert main(["--config", config(name, base), "--quiet", "gen-synth", data]) == 0
    found = {"gen-synth": _tree_digests(os.path.join(work, "data"))}
    for i, (run, (name, extra, flags)) in enumerate(TRAIN_RUNS.items()):
        out = os.path.join(work, f"run{i}")
        assert main(["--config", config(f"cfg{i}", {**DATASETS[name], **extra}), "--quiet",
                     "train", os.path.join(work, name), "--out", out, *flags]) == 0
        found[run] = _tree_digests(out)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["gradcheck"]) == 0
    found["gradcheck"] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return found


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return current_digests(str(tmp_path_factory.mktemp("golden")))


@pytest.mark.parametrize("run", ["gen-synth", *TRAIN_RUNS, "gradcheck"])
def test_outputs_are_byte_identical(digests, run):
    assert digests[run] == DIGESTS[run]


def test_blocked_config_spans_blocks_and_wraps():
    side, n_tgt = BLOCKED["image_size"], BLOCKED["target_count"]
    assert n_tgt > _block_images(side, side)
    assert n_tgt < min(BLOCKED["batch_size"], BLOCKED["source_count"])


DIGESTS = {
    "gen-synth": {
        "config.json": "0e29c1b12b58eb8df332d6ea140b9362111ae4e4bc23a7cba4a8c51fe8055680",
        "source/images/im_0000.tnsr": "ab12bfa92a55978cf6c80eab6cf9197efef5125dab2056a2a71176fc507a7f1b",
        "source/images/im_0001.tnsr": "8af59840f91c511f96e3fbc6b6e2048de3465df521d623368b9d6fda206b2720",
        "source/images/im_0002.tnsr": "0ee26a1554a96941970ac1d49ce305a5e19250a0c133bcbd31ab12fd726beeda",
        "source/images/im_0003.tnsr": "b5d4ea6295b7167393b78378a550b8bf25a70e19ed4d132495fe6ddecebeefb6",
        "source/images/im_0004.tnsr": "62c824b35535d56df6b782317db602fbb9b68b8fc3326675814aba0fc2e0b5a8",
        "source/images/im_0005.tnsr": "ab575a3e586c639f9655640bea1f083d0c092078b56f35078b9b958df3513531",
        "source/images/im_0006.tnsr": "45bae5d3cfff37b015f53ca1419229d3b9a7ce5eb351001da61c60ab6c2daae4",
        "source/images/im_0007.tnsr": "31a1be74762abbc4ca81d54fdc52ae7fca5264d5e5c730a4341598e6a377d116",
        "source/images/im_0008.tnsr": "5340fca1b679660882d3956e90ef1aca46d244df75f8382d7ff9fe8d05a89fbd",
        "source/images/im_0009.tnsr": "dd73212b5de6c95da51c93d558b03b5c3d5f93edf431fcd2b4a333cdad41a409",
        "source/images/im_0010.tnsr": "69968b69c7cd1d4083a0ed3847f3b136278df54fc269a95dd45284bcbe421fd5",
        "source/images/im_0011.tnsr": "a567b816f94a1d6720b1f4c1842be632f90b7527078292ad524b3079c51a70f6",
        "source/labels.json": "b07a49a2f901da94206c26e09ad9218eac4846264f2180d3e124ed94a3367484",
        "source/masks/im_0000.tnsr": "de9223db107d3846e164554db434ada82bf08be98aaca9fc49e5edc798b14ce4",
        "source/masks/im_0001.tnsr": "de9223db107d3846e164554db434ada82bf08be98aaca9fc49e5edc798b14ce4",
        "source/masks/im_0002.tnsr": "9d83e8649df41410b4068425d94d945fce80a7cd33aa4b0b0d57eec4103c966b",
        "source/masks/im_0003.tnsr": "de9223db107d3846e164554db434ada82bf08be98aaca9fc49e5edc798b14ce4",
        "source/masks/im_0004.tnsr": "0f3d8e72650c0a8142b98e78ef41da2ff024acc340b4321fe9a9fc1ce421e2a8",
        "source/masks/im_0005.tnsr": "ec62163f658bed64223acb214cf8d8a4e6ba1554ed1d8c64a0a14362005c7684",
        "source/masks/im_0006.tnsr": "de9223db107d3846e164554db434ada82bf08be98aaca9fc49e5edc798b14ce4",
        "source/masks/im_0007.tnsr": "ec5f175d603e613b208a098ba1d50356ec3be4c15b46a64ce6a5768d6360e233",
        "source/masks/im_0008.tnsr": "de9223db107d3846e164554db434ada82bf08be98aaca9fc49e5edc798b14ce4",
        "source/masks/im_0009.tnsr": "9452afcce69422f2dcc11c57dd422cf069a089b0c90c9fa25b19a9a0fed103ab",
        "source/masks/im_0010.tnsr": "cd6733ea5a8936f14ccab1e8bd9a06b0790eada82482dccac003a60fedede745",
        "source/masks/im_0011.tnsr": "0cc4c6c63ec4eba8f9abd88752f3b4a9b7fba5e3488caf9ec47ea66cb3cf24a0",
        "summary.json": "0dbec2e450564e3be888c901ae9ec17380f722859d73c5ea6cf7ad769b83a248",
        "target/images/im_0000.tnsr": "9f6593b15ee8abefc788effa9e0fd8802dcc43f7c19863e8bd4f4fba77b9bf1d",
        "target/images/im_0001.tnsr": "9176003ee21b665b4bad132e431de11962d02d98064f223d16abbd1f0a2bfa50",
        "target/images/im_0002.tnsr": "d6acd35c010586fa095bbaea2ddf9eb620c4e2787756224b9b0c0d633e2bdd64",
        "target/images/im_0003.tnsr": "e1b301dcac8d6f9d7b32f631a9952139b79c9f237093bdfdd1b0973a2f2d2389",
        "target/images/im_0004.tnsr": "617926fedddd7952bbbced829a8b7b101a3e16922dcef4f5a312644ab295ca14",
        "target/images/im_0005.tnsr": "34d10ff1b09168b562eaedc5c719c28be5c65d7c844d10ee3a2741f126a3bc60",
        "target/images/im_0006.tnsr": "86af60c0d9a6ed977165dc357e1110c8be015e5f7700310df59bc5ebb8a63ca5",
        "target/images/im_0007.tnsr": "2c071da6881c73eb6f44f4a8159d0985b518efc4f108c4e7ffdae6ddd078dc7f",
        "target/labels.json": "a6331b26eb619e9189af5d40c799a060cff6546c983aad1c34cb31de1d05ae74",
        "target_eval/masks/im_0000.tnsr": "de9223db107d3846e164554db434ada82bf08be98aaca9fc49e5edc798b14ce4",
        "target_eval/masks/im_0001.tnsr": "72d3be5d956d96eab4bcbe62711437720c84b69ba4a84a9fcc36132c6b671d29",
        "target_eval/masks/im_0002.tnsr": "279c0c3042bc1f78998c002eec6f81ddfd815a4be7bda00e9791fdc991305b24",
        "target_eval/masks/im_0003.tnsr": "0998c7b4ac5cbcc09f0d970844a875cb5f687e25418d82100c04c13e54adc18f",
        "target_eval/masks/im_0004.tnsr": "9ee2c748ab33688a754540c6a70895b6b70f4918582b2e4f32f0c9c925ae3062",
        "target_eval/masks/im_0005.tnsr": "87236a1a740097a6589b3c88358fad45d676e1fa736a194fbf906f8b26891866",
        "target_eval/masks/im_0006.tnsr": "ef7311796df7f251ba3b9e63e7604e73248965a4daf0529873d0a222a0b1c5fe",
        "target_eval/masks/im_0007.tnsr": "1507c0306d09816a2c5503dbcb09ce1c0354ebe6c84d7053671695636ce622ff"
    },
    "train full": {
        "config.json": "0e29c1b12b58eb8df332d6ea140b9362111ae4e4bc23a7cba4a8c51fe8055680",
        "log.csv": "2b8e7902125a8b97d6a38f887d3e8ad65c703a27789e052ac523cdd5219c7cbd",
        "log.jsonl": "f00da31309846712e409b9920109a5d3e28c1fabb6ec29eebee3c50ce3735ecb",
        "models/centroids_source.json": "06f3e0c338cf69d3e8243a830ec7fc0b3b0b70ffd26dff4ecd995cf23ee277eb",
        "models/centroids_source.tnsr": "32e3ae265bfc55eba45368928a8c830a1044e2143614823e58874b7b6e94ecc3",
        "models/centroids_target.json": "06f3e0c338cf69d3e8243a830ec7fc0b3b0b70ffd26dff4ecd995cf23ee277eb",
        "models/centroids_target.tnsr": "fe739de49712b6c2e9bc3a959f92e3f4b310bae955b18ff6a5d15b422b8ef078",
        "models/classifier.tnsr": "426751f06462566a09675fa28f0566362816e7cd5cbac97268e65966528475a8",
        "models/discriminator.tnsr": "dd4b139ad256756258180fc6073e1d0346c6490fd66224b229e815cc9264a44a",
        "models/segmenter.tnsr": "6e36daac5d17263dc73441677acd981ce7395cbf818aa95ff561347df4b6881b",
        "pseudo_labels/im_0000.tnsr": "13e1a056c5b0647e47a7de8051be52133c9aa6f03fe10b5411782c0dfc646c40",
        "pseudo_labels/im_0001.tnsr": "fd6ec7b5b2bc68a469a00e9e9280dfadf089e4d60a483b4cf9418506bab71c7b",
        "pseudo_labels/im_0002.tnsr": "aab06a4b9985ea6b066f2e327bf88112546fa85b7e13b02762c090a3f4c4bbcf",
        "pseudo_labels/im_0003.tnsr": "a12a50c0bf4f690bd40281d407af83cf571d215c6099a4d1a47274d452158697",
        "pseudo_labels/im_0004.tnsr": "d167c8643358e75daab84615f55049664b93660515a9eaa37b07dfa418f857e5",
        "pseudo_labels/im_0005.tnsr": "f20949f7ee94db34dd163f91fdb025272a444e6ed69a33a2a032f599ca89f191",
        "pseudo_labels/im_0006.tnsr": "05a9afd6f607e4fdaba8ee7613b4a021468771e99477037d666f37b38e9a189a",
        "pseudo_labels/im_0007.tnsr": "c2ca1858f356c10eacdb8471f987c9cd6281e79913b534a6444b4e54a8bd0bfc"
    },
    "train bl": {
        "config.json": "be5614ba29ff04adfdb733481501c66edcc0cbdd89644753803fc82fcb6ae5ec",
        "log.csv": "0b6d5b1051bf56b3706a6ad7663cb9d05e2673337be30cbb64f729235fdd3e70",
        "log.jsonl": "7a79f931c249a61d3f76bc7511024e60d6baeded05bd16a34e9c50be33f0a328",
        "models/centroids_source.json": "06f3e0c338cf69d3e8243a830ec7fc0b3b0b70ffd26dff4ecd995cf23ee277eb",
        "models/centroids_source.tnsr": "92c3c57497f5c56a89d7c165fc80dec6058374b6d8de112d69e4235ed70535d6",
        "models/centroids_target.json": "06f3e0c338cf69d3e8243a830ec7fc0b3b0b70ffd26dff4ecd995cf23ee277eb",
        "models/centroids_target.tnsr": "4a0001f342b3c9f64d30750d46940365e3f83df8b00f66b70742f8db2b77584b",
        "models/classifier.tnsr": "426751f06462566a09675fa28f0566362816e7cd5cbac97268e65966528475a8",
        "models/discriminator.tnsr": "bb41a3a2ee820ee30fbcea6277258d7283b43b29bc345524c2b8f67af38b0cc4",
        "models/segmenter.tnsr": "f5c9f17b3310167cc3cd55f547e7e413b8750ee18547c48a778e5c1e491e05d9",
        "pseudo_labels/im_0000.tnsr": "db3fd56f83ce065705e5ff2d816f743d3a398f5ea3e6a84760ce963ba4c3ecc9",
        "pseudo_labels/im_0001.tnsr": "db3fd56f83ce065705e5ff2d816f743d3a398f5ea3e6a84760ce963ba4c3ecc9",
        "pseudo_labels/im_0002.tnsr": "db3fd56f83ce065705e5ff2d816f743d3a398f5ea3e6a84760ce963ba4c3ecc9",
        "pseudo_labels/im_0003.tnsr": "db3fd56f83ce065705e5ff2d816f743d3a398f5ea3e6a84760ce963ba4c3ecc9",
        "pseudo_labels/im_0004.tnsr": "db3fd56f83ce065705e5ff2d816f743d3a398f5ea3e6a84760ce963ba4c3ecc9",
        "pseudo_labels/im_0005.tnsr": "db3fd56f83ce065705e5ff2d816f743d3a398f5ea3e6a84760ce963ba4c3ecc9",
        "pseudo_labels/im_0006.tnsr": "db3fd56f83ce065705e5ff2d816f743d3a398f5ea3e6a84760ce963ba4c3ecc9",
        "pseudo_labels/im_0007.tnsr": "db3fd56f83ce065705e5ff2d816f743d3a398f5ea3e6a84760ce963ba4c3ecc9"
    },
    "train refine+gate": {
        "config.json": "bb7cc5d8463838eaae182f921f4ebaca00d598c0ffc445969775eab6e3181bd1",
        "log.csv": "f070079f27721d3bbabb09cdbc6ddb189c73aa3030a3265a49d36a68a76a5370",
        "log.jsonl": "33bec6f3361e696ae47f554fc26aeacf45c987a097a534cd181ef11c4b539bfd",
        "models/centroids_source.json": "06f3e0c338cf69d3e8243a830ec7fc0b3b0b70ffd26dff4ecd995cf23ee277eb",
        "models/centroids_source.tnsr": "4860ed3c6c4b7cb97a665b9c892ff496e1740bbd3cb5123d8206e5d28bb96e15",
        "models/centroids_target.json": "06f3e0c338cf69d3e8243a830ec7fc0b3b0b70ffd26dff4ecd995cf23ee277eb",
        "models/centroids_target.tnsr": "9a6173289de0da1bafa8399de82d048daff73f4fdfba6abe68e4e977941f773f",
        "models/classifier.tnsr": "426751f06462566a09675fa28f0566362816e7cd5cbac97268e65966528475a8",
        "models/discriminator.tnsr": "dd909de6a04104f8afaed2a488330e6a38b0f37e3f903bc35625b0fb9405c5bc",
        "models/segmenter.tnsr": "d9db664fe6d18193c0a29889d99830abed9b3da05caaf964dd6d8ec22adc1a72",
        "pseudo_labels/im_0000.tnsr": "8abde0f50df9b718a2ee799d916578d12e968459eafd6a5e98f1d457d5fe31fe",
        "pseudo_labels/im_0001.tnsr": "402058adc04a18248fd38e59def45daaf380f787e44e282c64048f95a95a23c1",
        "pseudo_labels/im_0002.tnsr": "8d905113d582e2d60a67c626418ba17bde6e2c3bfb7932c7cada6892ff657470",
        "pseudo_labels/im_0003.tnsr": "c11fc3b596801d864de34b8c5aae000113ff18d8f8fe84e83c0e7b0c28ba5294",
        "pseudo_labels/im_0004.tnsr": "a4052ff0b28945fb73704538e3645b8e223a8a759dafe3cba3ff27309ddc570a",
        "pseudo_labels/im_0005.tnsr": "bd278be7651ed8f27f4fba99ba7f3d1e4fae4c801ab736356b19d50f154652a9",
        "pseudo_labels/im_0006.tnsr": "bc1850f122c9dc020c802db02acdf435f9c08ab1612b4e408462b2a489b448a8",
        "pseudo_labels/im_0007.tnsr": "f974fef2e4560f4fbd997ddcec12ea8e7e44e656576810ab564f71f35c887d16"
    },
    "blocked train full": {
        "config.json": "38825f10ec41cd9fe8bc3110a73a1387259a50b670d44dd56cfce4d7968ac66b",
        "log.csv": "a985c8411f428a1f9d9b625d8a404d820d37bd16d25860ef39560792449d804f",
        "log.jsonl": "58eb12a5f73d2f586722896e6507d1cb7176a135fe6301df0efe3d35b3613e13",
        "models/centroids_source.json": "8599d86ea433d7e2360d9e178e061e74c0ccdbcfa6cc48b20c57f946c31f9e88",
        "models/centroids_source.tnsr": "9b8b6a4a875705a6c5067737597839fba941f440a3632c0d7b364b73fc13d40e",
        "models/centroids_target.json": "8599d86ea433d7e2360d9e178e061e74c0ccdbcfa6cc48b20c57f946c31f9e88",
        "models/centroids_target.tnsr": "7bfc5a5c6cefd4c30aba531e2f89df03c0862818517e540c24eca61395023e41",
        "models/classifier.tnsr": "323ab9b43f705011cef3afe14adda2f1023b0f52a531e3079d454a057a94bea7",
        "models/discriminator.tnsr": "d31b6acf265f887b9772dc6af6482eaa397ea57e901f41e044c1d2d6dab60554",
        "models/segmenter.tnsr": "82cdbe16fb22f35f896da6543754a9878a8f65ddad4cf3706d2025ea6d4a985d",
        "pseudo_labels/im_0000.tnsr": "8c67325bad4828875868249296a4ce60eceadbe9f793b00f45f3d10b86f4610d",
        "pseudo_labels/im_0001.tnsr": "8ede157f52e943857a13142feefaa6a540b617c73c3997b95e246b0ddc7a1799",
        "pseudo_labels/im_0002.tnsr": "46282a561b62755616a4320819f487b9014e0df90a8bea9027115e922de4e04e",
        "pseudo_labels/im_0003.tnsr": "94e7e29304840ef3f6968f9c6859d25c1b4e7d7af7d3403a7eee0e74dd068ec8",
        "pseudo_labels/im_0004.tnsr": "3631720e9e3ef1c8ae4dd5c49a196666fc27b64bac76f060df68fa1f929da918"
    },
    "blocked train refine+gate": {
        "config.json": "111e34415b8d870195e02d856d387fe0d705a0b1022d53d80a8c37569686f8fe",
        "log.csv": "a3237454d2f0585d67957da985391dd6defac57a3c9beaf5a74b7802c6372c49",
        "log.jsonl": "bb5bf49f825959bf52444befd1ff3ccd6b26512de53c25a8ed73f8a3ac8e71c4",
        "models/centroids_source.json": "8599d86ea433d7e2360d9e178e061e74c0ccdbcfa6cc48b20c57f946c31f9e88",
        "models/centroids_source.tnsr": "f458cb89838ad50ee12c64138774d8c187d2d8ab93b3451adca78785d036bb6c",
        "models/centroids_target.json": "8599d86ea433d7e2360d9e178e061e74c0ccdbcfa6cc48b20c57f946c31f9e88",
        "models/centroids_target.tnsr": "868df357de1b7775beb9074724413394f97d64f9de1747d16a56d346fa3a11fa",
        "models/classifier.tnsr": "323ab9b43f705011cef3afe14adda2f1023b0f52a531e3079d454a057a94bea7",
        "models/discriminator.tnsr": "85c04277eacf84bf257f95a91664888348691683ba122def017c3757fdce1330",
        "models/segmenter.tnsr": "79a51d75f3bf0dbbda4a7944fb1e9bf933dfc981f0a539d3be0284634ec16ede",
        "pseudo_labels/im_0000.tnsr": "779bc5f7452da278df408d9af9044006c1b90dace4bbc9b5f2c7eb0c380934af",
        "pseudo_labels/im_0001.tnsr": "af457e4c173e6a6756182e3d7cf484804973736ef680481baaf285077a5dddad",
        "pseudo_labels/im_0002.tnsr": "05e27a6c2c9bdaa2c262c5d2c8aa07e28e1388aaca21aa3bc39e3a280df3cfb2",
        "pseudo_labels/im_0003.tnsr": "0050875e7b03dee36a9c35ab84f5627a5fe8cdb279fa3b30009c319b8594915f",
        "pseudo_labels/im_0004.tnsr": "7ea09f081ec3395069e6b3961c872c00831de79710e938034865e8c615d69d65"
    },
    "gradcheck": "6bf9cbf847891b5a921c8aa9a58dd99c130ceeb28f994d8cc9724ebbebed0711"
}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        print("DIGESTS = " + json.dumps(current_digests(work), indent=4))
